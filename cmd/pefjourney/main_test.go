package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestGoldenOutput pins pefjourney's stdout byte for byte against the
// committed golden in testdata.
func TestGoldenOutput(t *testing.T) {
	args := []string{}
	want, err := os.ReadFile(filepath.Join("testdata", "default.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("run(%v) output differs from default.golden:\n--- got ---\n%s--- want ---\n%s", args, out.Bytes(), want)
	}
}
