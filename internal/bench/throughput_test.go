package bench

import (
	"testing"
)

// TestRunThroughputSmall smoke-tests the throughput experiment at a
// small scale: both modes must process the full stream, produce
// identical clustering fingerprints (RunThroughput errors otherwise)
// and report sane metrics.
func TestRunThroughputSmall(t *testing.T) {
	s := SmallScale()
	rep, err := RunThroughput(s)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != "edmstream-throughput/v1" {
		t.Errorf("schema = %q", rep.Schema)
	}
	for _, r := range []ThroughputModeResult{rep.PerPoint, rep.Batch} {
		if r.Points != s.Points {
			t.Errorf("%s: points = %d, want %d", r.Mode, r.Points, s.Points)
		}
		if r.PointsPerSec <= 0 {
			t.Errorf("%s: no throughput measured", r.Mode)
		}
		if r.ActiveCells == 0 || r.Clusters == 0 {
			t.Errorf("%s: degenerate clustering: %+v", r.Mode, r)
		}
	}
	if rep.Speedup <= 0 {
		t.Errorf("speedup = %v", rep.Speedup)
	}
}

// The steady-state ingest benchmarks live at the repository root
// (BenchmarkInsertBatch in bench_test.go) and drive the public API;
// this package only hosts the paired experiment (RunThroughput).
