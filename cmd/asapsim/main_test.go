package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestScaleModeWritesProfiles runs the smallest deployment ladder with
// both profiling flags and checks that each leaves a non-empty file:
// scale mode used to return before profiling started and wrote nothing.
func TestScaleModeWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.prof")
	mem := filepath.Join(dir, "mem.prof")
	err := run([]string{"-scale", "-nodes", "1000", "-parallel", "1",
		"-benchout", filepath.Join(dir, "BENCH_scale.json"),
		"-cpuprofile", cpu, "-memprofile", mem})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if fi.Size() == 0 {
			t.Errorf("%s is empty", filepath.Base(path))
		}
	}
}
