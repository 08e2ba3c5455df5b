package bench

import (
	"testing"
)

// TestRunServeSmall smoke-tests the serving experiment at a small
// scale: both refresh modes must run the same number of refreshes and
// agree on the clustering (RunServe errors otherwise), the concurrent
// phase must issue queries that hit clusters, and steady-state queries
// must be allocation-free. Absolute speedups are machine-dependent and
// documented by the committed BENCH_serve.json artifact, not asserted
// here.
func TestRunServeSmall(t *testing.T) {
	s := SmallScale()
	rep, err := RunServe(s)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != "edmstream-serve/v2" {
		t.Errorf("schema = %q", rep.Schema)
	}
	for _, r := range []ServeRefreshResult{rep.Incremental, rep.Full} {
		if r.Refreshes < 5 || r.MeanNanos <= 0 {
			t.Errorf("%s: degenerate refresh measurement: %+v", r.Mode, r)
		}
		if r.ActiveCells == 0 || r.Clusters == 0 {
			t.Errorf("%s: degenerate clustering: %+v", r.Mode, r)
		}
	}
	if rep.RefreshSpeedup <= 0 {
		t.Errorf("refresh speedup = %v", rep.RefreshSpeedup)
	}
	if rep.Readers != ServeReaders {
		t.Errorf("readers = %d, want %d", rep.Readers, ServeReaders)
	}
	if rep.Queries <= 0 || rep.QueriesPerSec <= 0 {
		t.Errorf("no queries measured: %+v", rep)
	}
	// In-distribution probes are drawn like the workload's cluster
	// bursts, so on a steady-state engine they should essentially
	// always land in a cluster; the committed artifact documents the
	// full-scale value (≥ 0.999). The bound here is looser only
	// because the smoke scale warms fewer refresh cycles.
	if rep.HitRate < 0.99 || rep.HitRate > 1 {
		t.Errorf("in-distribution hit rate = %v, want ≥ 0.99", rep.HitRate)
	}
	if rep.NoiseQueries > 0 && (rep.NoiseHitRate < 0 || rep.NoiseHitRate > 1) {
		t.Errorf("noise hit rate = %v", rep.NoiseHitRate)
	}
	if rep.AllocsPerQuery > 0.01 {
		t.Errorf("Assign allocates %.4f per query, want ~0", rep.AllocsPerQuery)
	}
	if rep.WriterPointsPerSec <= 0 {
		t.Errorf("writer made no progress while serving")
	}
}
