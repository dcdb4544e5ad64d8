// Package durable is the one implementation of the repository's durable
// state: the checksummed JSON envelope that campaign checkpoints, search
// checkpoints and the verdict-cache spill share, the atomic and rotating
// writers that put those documents on disk, and the reader that falls
// back through the rotations. For a document path P the layout is:
//
//	P      the latest complete document (WriteAtomic)
//	P.1    the newest rotation (WriteRotating)
//	P.2    the rotation before it
//	P.tmp  a write in flight: never read, replaced by the next write
//
// Every file but P.tmp is either absent or complete, because each one
// only ever appears by an atomic rename of a synced P.tmp.
package durable

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// Encode renders doc as indented JSON with its content checksum stored in
// the field sum points at: the hex SHA-256 of the same rendering with
// that field empty, so the hash covers every other byte of the document.
func Encode[T any](doc T, sum func(*T) *string) ([]byte, error) {
	*sum(&doc) = ""
	body, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		return nil, err
	}
	h := sha256.Sum256(body)
	*sum(&doc) = hex.EncodeToString(h[:])
	return json.MarshalIndent(&doc, "", "  ")
}

// Decode parses a document Encode produced, rejecting unknown fields. A
// document carrying a checksum must be, whitespace aside, exactly what
// Encode renders for the decoded value: that verifies the checksum, and
// it also rejects what encoding/json alone would let through — keys in
// another letter case and trailing bytes. Documents without a checksum
// (written before the field existed) skip the check.
func Decode[T any](data []byte, sum func(*T) *string) (*T, error) {
	var doc T
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}
	if *sum(&doc) == "" {
		return &doc, nil
	}
	canon, err := Encode(doc, sum)
	if err != nil {
		return nil, err
	}
	var got, want bytes.Buffer
	json.Compact(&want, canon) //nolint:errcheck // Encode's output is valid JSON
	if err := json.Compact(&got, data); err != nil || !bytes.Equal(got.Bytes(), want.Bytes()) {
		return nil, fmt.Errorf("checksum mismatch (file is corrupt or truncated): stored %s", *sum(&doc))
	}
	return &doc, nil
}

// WriteAtomic replaces path with data: it writes and syncs path.tmp, then
// renames it over path, so a crash leaves either the old or the new file.
func WriteAtomic(path string, data []byte) error { return write(path, data, false) }

// WriteRotating writes data as the newest rotation path.1 and keeps the
// previous one as path.2. The new data is written and synced before any
// rename, so a crash at any point leaves at least one intact rotation.
func WriteRotating(path string, data []byte) error { return write(path, data, true) }

// write syncs data to path.tmp and renames it to path (rotate false) or
// to path.1 after moving path.1 to path.2 (rotate true). The tmp file is
// removed on failure.
func write(path string, data []byte, rotate bool) (err error) {
	tmp, dst := path+".tmp", path
	defer func() {
		if err != nil {
			os.Remove(tmp)
		}
	}()
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if rotate {
		dst = path + ".1"
		if _, serr := os.Stat(dst); serr == nil {
			if err := os.Rename(dst, path+".2"); err != nil {
				return err
			}
		}
	}
	return os.Rename(tmp, dst)
}

// ReadFallback reads and decodes path, falling back to the rotations when
// it is corrupt, truncated or missing: path.1, then path.2 — or only the
// older sibling P.2 when path is itself the rotation P.1. A fallback
// prints a loud "<prog>: WARNING" line to warn; when nothing decodes, the
// error joins every attempt.
func ReadFallback[T any](path string, decode func([]byte) (T, error), warn io.Writer, prog string) (T, error) {
	candidates := []string{path}
	if base, ok := strings.CutSuffix(path, ".1"); ok {
		candidates = append(candidates, base+".2")
	} else if !strings.HasSuffix(path, ".2") {
		candidates = append(candidates, path+".1", path+".2")
	}
	var errs []error
	for i, p := range candidates {
		data, err := os.ReadFile(p)
		if err == nil {
			var doc T
			if doc, err = decode(data); err == nil {
				if i > 0 {
					fmt.Fprintf(warn, "%s: WARNING: checkpoint %s is unusable (%v); resuming from rotation %s instead\n",
						prog, path, errs[0], p)
				}
				return doc, nil
			}
		}
		errs = append(errs, fmt.Errorf("%s: %w", p, err))
	}
	var zero T
	if len(errs) > 1 {
		return zero, fmt.Errorf("checkpoint %s is unusable and no rotation could be recovered: %w", path, errors.Join(errs...))
	}
	return zero, errs[0]
}
