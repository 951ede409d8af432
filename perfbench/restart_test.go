package main

import (
	"path/filepath"
	"testing"

	"repro/internal/service"
)

// TestRestartSnapshotRestoresIdentically builds a small snapshot and
// restarts over it twice: each restart must resume exactly the
// checkpointed prefix, compute exactly the tail, reproduce the
// uninterrupted campaign report and read every result back, with
// identical counts both times.
func TestRestartSnapshotRestoresIdentically(t *testing.T) {
	dir := t.TempDir()
	spec := restartSpec(3)
	ref, err := uninterruptedReport(filepath.Join(dir, "reference"), spec)
	if err != nil {
		t.Fatal(err)
	}
	in := &restartInputs{snap: filepath.Join(dir, "snapshot"), spec: spec, campaign: ref}
	for i := 0; i < 12; i++ {
		in.reqs = append(in.reqs, service.Request{ID: cheapDrivers[i%len(cheapDrivers)], Seed: int64(100 + i), Quick: true})
	}
	if err := buildSnapshot(in); err != nil {
		t.Fatal(err)
	}
	var first counts
	for i := 0; i < 2; i++ {
		op, err := restartOp(in, filepath.Join(dir, "live"), false)
		if err != nil {
			t.Fatal(err)
		}
		if op.complaint != "" {
			t.Fatalf("restart %d: %s", i+1, op.complaint)
		}
		if op.counts["chunks_resumed"] != resumeChunks || op.counts["chunks_computed"] != campaignChunks-resumeChunks {
			t.Fatalf("restart %d resumed %d and computed %d chunks, want %d and %d", i+1,
				op.counts["chunks_resumed"], op.counts["chunks_computed"], resumeChunks, campaignChunks-resumeChunks)
		}
		if len(op.lat) != len(in.reqs) {
			t.Fatalf("restart %d read back %d results, want %d", i+1, len(op.lat), len(in.reqs))
		}
		if i == 0 {
			first = op.counts
		} else if d := first.diff(op.counts); d != "" {
			t.Fatalf("second restart's counts differ: %s", d)
		}
	}
}
