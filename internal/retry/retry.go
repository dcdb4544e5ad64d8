// Package retry is the shared bounded-exponential-backoff discipline:
// the retry loop the lease worker client and the pef serve example client
// both run their HTTP requests through. Jitter is deterministic — drawn
// from the pure counter-mode prng at (Seed, stream, attempt) — so a
// retry schedule replays bit for bit under a fixed seed (the chaos tests
// depend on this), while differently-seeded clients retrying against the
// same server stay decorrelated instead of thundering in lockstep.
package retry

import (
	"context"
	"fmt"
	"time"

	"pef/internal/prng"
)

// Policy parameterizes a bounded retry loop. The zero value is usable:
// every field has a served default.
type Policy struct {
	// MaxRetries bounds retries per request (values < 1 mean 8); the
	// first attempt is free, so an operation runs at most 1+MaxRetries
	// times.
	MaxRetries int
	// Base is the first backoff delay (values <= 0 mean 100ms); retry k
	// waits Base<<(k-1) scaled by the jitter factor.
	Base time.Duration
	// Seed seeds the deterministic jitter stream (0 means 1). Derive one
	// from a client identity with SeedString.
	Seed uint64
}

func (p Policy) withDefaults() Policy {
	if p.MaxRetries < 1 {
		p.MaxRetries = 8
	}
	if p.Base <= 0 {
		p.Base = 100 * time.Millisecond
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

// Delay returns the pause before retry attempt (1-based) of request
// stream: exponential backoff with ±50% deterministic jitter. The factor
// comes from the seeded stream, so schedules are reproducible per
// (Seed, stream, attempt).
func (p Policy) Delay(stream, attempt uint64) time.Duration {
	p = p.withDefaults()
	d := p.Base << (attempt - 1)
	f := 0.5 + prng.Float64At(p.Seed, stream, attempt)
	return time.Duration(float64(d) * f)
}

// Do runs op up to 1+MaxRetries times, sleeping the jittered backoff of
// request stream between attempts. op reports (retryable, err): a nil
// err stops with success, a non-retryable err is returned immediately
// (retrying a protocol rejection cannot un-reject it), and a retryable
// err is remembered for the exhaustion report. A context cancellation
// during a backoff sleep returns ctx.Err().
func Do(ctx context.Context, p Policy, stream uint64, op func(attempt int) (retryable bool, err error)) error {
	p = p.withDefaults()
	var last error
	for attempt := 0; attempt <= p.MaxRetries; attempt++ {
		if attempt > 0 {
			if err := Sleep(ctx, p.Delay(stream, uint64(attempt))); err != nil {
				return err
			}
		}
		retryable, err := op(attempt)
		if err == nil {
			return nil
		}
		if !retryable {
			return err
		}
		last = err
	}
	return fmt.Errorf("retry: %d retries exhausted: %w", p.MaxRetries, last)
}

// Sleep pauses for d, returning ctx.Err() early if the context is
// cancelled first.
func Sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// SeedString derives a stable non-zero jitter seed from an identifier
// (FNV-1a), so named clients get reproducible-but-decorrelated schedules
// without explicit seeding.
func SeedString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	if h == 0 {
		h = 1
	}
	return h
}
