package lease

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"pef/internal/scenario"
	"pef/internal/telemetry"
)

// fakeClock is a manually advanced clock for driving lease deadlines
// without real sleeps.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// testCampaign is the small campaign the unit tests lease out: 12
// scenarios in 4 blocks of 3.
func testCampaign() Campaign {
	return Campaign{
		Generator: "uniform",
		Gen:       scenario.GenConfig{MaxRing: 6},
		Count:     12,
		Seeds:     []uint64{1},
		Blocks:    4,
	}
}

func newTestCoordinator(t testing.TB, clock *fakeClock, mut func(*Config)) *Coordinator {
	t.Helper()
	cfg := Config{
		Campaign:         testCampaign(),
		HeartbeatTimeout: time.Second,
		Now:              clock.Now,
	}
	if mut != nil {
		mut(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

// blockCheckpoint runs block i of the campaign for real and returns its
// encoded checkpoint — the exact bytes a healthy worker would ack.
func blockCheckpoint(t testing.TB, camp Campaign, block int) []byte {
	t.Helper()
	cfg := scenario.CampaignConfig{
		Generator:  camp.Generator,
		Gen:        camp.Gen,
		Count:      camp.Count,
		Seeds:      camp.Seeds,
		ShardIndex: block,
		ShardCount: camp.Blocks,
	}
	agg, err := scenario.NewAggregate(cfg)
	if err != nil {
		t.Fatalf("NewAggregate(block %d): %v", block, err)
	}
	for v, serr := range scenario.StreamCampaign(context.Background(), cfg) {
		if serr != nil {
			t.Fatalf("StreamCampaign(block %d): %v", block, serr)
		}
		agg.Add(v)
	}
	data, err := agg.Checkpoint().Encode()
	if err != nil {
		t.Fatalf("Encode(block %d): %v", block, err)
	}
	return data
}

// wholeReport runs the campaign single-process and renders its report —
// the byte-identity baseline every merged result must match.
func wholeReport(t *testing.T, camp Campaign) []byte {
	t.Helper()
	cfg := scenario.CampaignConfig{
		Generator: camp.Generator,
		Gen:       camp.Gen,
		Count:     camp.Count,
		Seeds:     camp.Seeds,
	}
	agg, err := scenario.NewAggregate(cfg)
	if err != nil {
		t.Fatalf("NewAggregate: %v", err)
	}
	for v, serr := range scenario.StreamCampaign(context.Background(), cfg) {
		if serr != nil {
			t.Fatalf("StreamCampaign: %v", serr)
		}
		agg.Add(v)
	}
	var buf bytes.Buffer
	if err := agg.WriteReport(&buf); err != nil {
		t.Fatalf("WriteReport: %v", err)
	}
	return buf.Bytes()
}

func mustGrant(t *testing.T, c *Coordinator, worker string) Grant {
	t.Helper()
	resp := c.Lease(worker)
	if resp.Grant == nil {
		t.Fatalf("Lease(%s): no grant (resp=%+v)", worker, resp)
	}
	return *resp.Grant
}

func TestLeaseGrantsBlocksInOrder(t *testing.T) {
	clock := newFakeClock()
	c := newTestCoordinator(t, clock, nil)
	camp := c.Campaign()
	var lastToken uint64
	for i := 0; i < camp.Blocks; i++ {
		g := mustGrant(t, c, "w")
		if g.Block != i {
			t.Fatalf("grant %d: got block %d, want lowest pending %d", i, g.Block, i)
		}
		if g.Epoch != 0 {
			t.Fatalf("block %d: fresh grant has epoch %d, want 0", i, g.Epoch)
		}
		start, end := camp.Block(i)
		if g.Start != start || g.End != end {
			t.Fatalf("block %d: grant bounds [%d, %d), want [%d, %d)", i, g.Start, g.End, start, end)
		}
		if g.Token <= lastToken {
			t.Fatalf("block %d: token %d not strictly monotonic after %d", i, g.Token, lastToken)
		}
		lastToken = g.Token
	}
	// Everything leased: the fabric answers with a bounded wait hint.
	resp := c.Lease("w2")
	if resp.Grant != nil || resp.Done || resp.Failed != "" {
		t.Fatalf("all leased: unexpected response %+v", resp)
	}
	if resp.RetryMillis <= 0 || resp.RetryMillis > c.Timeout().Milliseconds() {
		t.Fatalf("all leased: retry hint %dms outside (0, %dms]", resp.RetryMillis, c.Timeout().Milliseconds())
	}
}

func TestHeartbeatExtendsLease(t *testing.T) {
	clock := newFakeClock()
	c := newTestCoordinator(t, clock, nil)
	g := mustGrant(t, c, "w")
	// Heartbeat just before the deadline, then cross the original
	// deadline: the lease must still be alive.
	clock.Advance(900 * time.Millisecond)
	if err := c.Heartbeat(g.Block, g.Token); err != nil {
		t.Fatalf("heartbeat before deadline: %v", err)
	}
	clock.Advance(900 * time.Millisecond) // 1.8s after grant, 0.9s after beat
	if err := c.Heartbeat(g.Block, g.Token); err != nil {
		t.Fatalf("heartbeat extended lease rejected: %v", err)
	}
	if got := c.Status().Expired; got != 0 {
		t.Fatalf("heartbeated lease expired %d times, want 0", got)
	}
}

func TestExpiredLeaseIsReleasedWithFreshEpochAndToken(t *testing.T) {
	clock := newFakeClock()
	c := newTestCoordinator(t, clock, nil)
	g := mustGrant(t, c, "w1")
	clock.Advance(c.Timeout() + time.Millisecond)
	// The silent lease lapses and the same block goes to the next asker.
	g2 := mustGrant(t, c, "w2")
	if g2.Block != g.Block {
		t.Fatalf("re-lease granted block %d, want expired block %d", g2.Block, g.Block)
	}
	if g2.Epoch != g.Epoch+1 {
		t.Fatalf("re-lease epoch %d, want %d", g2.Epoch, g.Epoch+1)
	}
	if g2.Token <= g.Token {
		t.Fatalf("re-lease token %d not newer than %d", g2.Token, g.Token)
	}
	st := c.Status()
	if st.Expired != 1 || st.ReLeased != 1 {
		t.Fatalf("expired=%d reLeased=%d, want 1/1", st.Expired, st.ReLeased)
	}
	// The superseded incarnation is fenced on both channels.
	if err := c.Heartbeat(g.Block, g.Token); !errors.Is(err, ErrStale) {
		t.Fatalf("stale heartbeat: got %v, want ErrStale", err)
	}
	data := blockCheckpoint(t, c.Campaign(), g.Block)
	if _, err := c.Ack(g.Block, g.Token, data); !errors.Is(err, ErrStale) {
		t.Fatalf("stale ack with valid payload: got %v, want ErrStale", err)
	}
	// The live incarnation is untouched by the fencing rejections.
	if err := c.Heartbeat(g2.Block, g2.Token); err != nil {
		t.Fatalf("live heartbeat after fencing: %v", err)
	}
}

func TestAckIsIdempotentForWinningToken(t *testing.T) {
	clock := newFakeClock()
	c := newTestCoordinator(t, clock, nil)
	g := mustGrant(t, c, "w")
	data := blockCheckpoint(t, c.Campaign(), g.Block)
	dup, err := c.Ack(g.Block, g.Token, data)
	if err != nil || dup {
		t.Fatalf("first ack: dup=%t err=%v", dup, err)
	}
	dup, err = c.Ack(g.Block, g.Token, data)
	if err != nil || !dup {
		t.Fatalf("re-ack with winning token: dup=%t err=%v, want duplicate", dup, err)
	}
	// A non-winning token acking a done block is stale, not a duplicate.
	if _, err := c.Ack(g.Block, g.Token+99, data); !errors.Is(err, ErrStale) {
		t.Fatalf("foreign-token ack on done block: got %v, want ErrStale", err)
	}
	st := c.Status()
	if st.Acked != 1 || st.DupAcks != 1 || st.StaleAcks != 1 {
		t.Fatalf("acked=%d dupAcks=%d staleAcks=%d, want 1/1/1", st.Acked, st.DupAcks, st.StaleAcks)
	}
}

func TestAckRejectsBadCheckpoints(t *testing.T) {
	clock := newFakeClock()
	c := newTestCoordinator(t, clock, nil)
	camp := c.Campaign()
	g := mustGrant(t, c, "w")

	if _, err := c.Ack(g.Block, g.Token, []byte("not json")); err == nil {
		t.Fatal("garbage checkpoint accepted")
	}
	// A checkpoint for the wrong block must not land in this slot.
	wrong := blockCheckpoint(t, camp, g.Block+1)
	if _, err := c.Ack(g.Block, g.Token, wrong); err == nil || !strings.Contains(err.Error(), "covers") {
		t.Fatalf("wrong-block checkpoint: got %v, want coverage rejection", err)
	}
	// A checkpoint from a different campaign identity is foreign goods.
	foreign := camp
	foreign.Seeds = []uint64{99}
	foreignData := blockCheckpoint(t, foreign, g.Block)
	if _, err := c.Ack(g.Block, g.Token, foreignData); err == nil || !strings.Contains(err.Error(), "different campaign") {
		t.Fatalf("foreign-campaign checkpoint: got %v, want identity rejection", err)
	}
	// The rejections must not have consumed the lease.
	data := blockCheckpoint(t, camp, g.Block)
	if dup, err := c.Ack(g.Block, g.Token, data); err != nil || dup {
		t.Fatalf("valid ack after rejections: dup=%t err=%v", dup, err)
	}
}

func TestCompletionMergesToSingleProcessBytes(t *testing.T) {
	clock := newFakeClock()
	reg := telemetry.NewRegistry()
	c := newTestCoordinator(t, clock, func(cfg *Config) { cfg.Registry = reg })
	camp := c.Campaign()

	if _, err := c.Result(); err == nil {
		t.Fatal("Result before completion should fail")
	}
	for i := 0; i < camp.Blocks; i++ {
		g := mustGrant(t, c, "w")
		if _, err := c.Ack(g.Block, g.Token, blockCheckpoint(t, camp, g.Block)); err != nil {
			t.Fatalf("ack block %d: %v", g.Block, err)
		}
	}
	select {
	case <-c.Done():
	default:
		t.Fatal("Done not closed after final ack")
	}
	if resp := c.Lease("late"); !resp.Done {
		t.Fatalf("post-completion lease: got %+v, want Done", resp)
	}
	agg, err := c.Result()
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	var merged bytes.Buffer
	if err := agg.WriteReport(&merged); err != nil {
		t.Fatalf("WriteReport: %v", err)
	}
	if whole := wholeReport(t, camp); !bytes.Equal(merged.Bytes(), whole) {
		t.Fatalf("merged report diverges from single-process run:\n--- merged ---\n%s\n--- whole ---\n%s", merged.Bytes(), whole)
	}
	// The telemetry instruments mirror the fabric's accounting.
	snap := reg.Snapshot()
	if got := snap.Counters["lease.granted"]; got != int64(camp.Blocks) {
		t.Fatalf("lease.granted=%d, want %d", got, camp.Blocks)
	}
	if got := snap.Hists["lease.ackLatencyMillis"].Count; got != camp.Blocks {
		t.Fatalf("ackLatencyMillis count=%d, want %d", got, camp.Blocks)
	}
}

func TestMaxEpochsFailsCampaignLoudly(t *testing.T) {
	clock := newFakeClock()
	c := newTestCoordinator(t, clock, func(cfg *Config) { cfg.MaxEpochs = 2 })
	// Burn both allowed epochs of block 0 without ever acking.
	for i := 0; i < 2; i++ {
		g := mustGrant(t, c, "w")
		if g.Block != 0 || g.Epoch != i {
			t.Fatalf("grant %d: block=%d epoch=%d", i, g.Block, g.Epoch)
		}
		clock.Advance(c.Timeout() + time.Millisecond)
	}
	resp := c.Lease("w")
	if resp.Failed == "" || !strings.Contains(resp.Failed, "exhausted") {
		t.Fatalf("exhausted block: got %+v, want Failed", resp)
	}
	select {
	case <-c.Done():
	default:
		t.Fatal("Done not closed on campaign failure")
	}
	if _, err := c.Result(); err == nil || !strings.Contains(err.Error(), "exhausted") {
		t.Fatalf("Result after failure: %v", err)
	}
	if st := c.Status(); st.Failed == "" || st.Done {
		t.Fatalf("failed status: %+v", st)
	}
}

func TestNewRejectsBadCampaigns(t *testing.T) {
	if _, err := New(Config{Campaign: Campaign{Generator: "nope", Count: 10, Seeds: []uint64{1}}}); err == nil {
		t.Fatal("unknown generator accepted")
	}
	if _, err := New(Config{Campaign: Campaign{Generator: "uniform", Gen: scenario.GenConfig{MaxRing: 3}, Count: 10, Seeds: []uint64{1}}}); err == nil {
		t.Fatal("unsatisfiable maxring accepted")
	}
}

func TestBlocksCappedAtStreamLength(t *testing.T) {
	c, err := New(Config{Campaign: Campaign{
		Generator: "uniform",
		Count:     3,
		Seeds:     []uint64{1},
		Blocks:    64,
	}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	camp := c.Campaign()
	if camp.Blocks != 3 {
		t.Fatalf("Blocks=%d, want capped at total 3", camp.Blocks)
	}
	for i := 0; i < camp.Blocks; i++ {
		start, end := camp.Block(i)
		if end-start != 1 {
			t.Fatalf("block %d: [%d, %d) not a single scenario", i, start, end)
		}
	}
}
