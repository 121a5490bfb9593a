package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestMakeOutputDirCreatesTheParent: an -o path under directories that do
// not exist yet gets them, so snapshot.Save can create its temp file
// beside the output; an existing directory is left as it is.
func TestMakeOutputDirCreatesTheParent(t *testing.T) {
	out := filepath.Join(t.TempDir(), "fleet", "hotels", "hotel.snap")
	for i := 0; i < 2; i++ {
		if err := makeOutputDir(out); err != nil {
			t.Fatalf("call %d: %v", i+1, err)
		}
	}
	f, err := os.CreateTemp(filepath.Dir(out), ".opinedb-snap-*")
	if err != nil {
		t.Fatalf("the output directory cannot hold the save's temp file: %v", err)
	}
	f.Close()
}
