package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestGoldenOutput pins peftable's stdout byte for byte against the
// committed golden in testdata.
func TestGoldenOutput(t *testing.T) {
	args := []string{"-quick"}
	want, err := os.ReadFile(filepath.Join("testdata", "quick.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("run(%v) output differs from quick.golden:\n--- got ---\n%s--- want ---\n%s", args, out.Bytes(), want)
	}
}
