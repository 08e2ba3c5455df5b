package main

import (
	"fmt"
	"os"
	"testing"
)

// TestMain lets the test binary serve as the SUT child, as the
// benchmark binary does.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "sut" {
		if err := sutMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench sut:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// The smoke tests run each workload at a tiny scale, correctness gates
// included, in a scratch working directory.

func TestSmokeEngineDrift(t *testing.T) {
	t.Chdir(t.TempDir())
	sc := engineScale{warmupBatches: 2, chunks: 1, probePasses: 1, restores: 1}
	tl := newTally()
	if err := runEngineDrift(1, 0, sc, 1, tl); err != nil {
		t.Fatal(err)
	}
	checkTally(t, tl)
	ttl := newTally()
	if err := traceEngineDrift(1, sc, ttl); err != nil {
		t.Fatal(err)
	}
	if ttl.layers["core.insert_batch_us_per_pt"] <= 0 || ttl.layers["core.insert_batch_serial_us_per_pt"] <= 0 || ttl.layers["trace.spans"] <= 0 {
		t.Fatalf("traced layers missing: %v", ttl.layers)
	}
}

func TestSmokeIngestDurable(t *testing.T) {
	t.Chdir(t.TempDir())
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		t.Fatal(err)
	}
	sc := ingestScale{warmupPoints: 2 * warmupBatch, requests: 20, restarts: 1, probePasses: 1, minEpisodes: 1}
	tl := newTally()
	if err := runIngestDurable(1, 0, sc, tl, false); err != nil {
		t.Fatal(err)
	}
	checkTally(t, tl)
	if len(tl.recovery) != 1 || tl.layers["wal.fsyncs"] <= 0 {
		t.Fatalf("recovery %v, wal.fsyncs %v", tl.recovery, tl.layers["wal.fsyncs"])
	}
	ttl := newTally()
	if err := runIngestDurable(1, 0, sc, ttl, true); err != nil {
		t.Fatal(err)
	}
	if ttl.layers["client.transport_ingest_p50_ms"] == 0 || ttl.layers["http.assign_p50_ms"] <= 0 {
		t.Fatalf("traced layers missing: %v", ttl.layers)
	}
}

func TestSmokeServeMixed(t *testing.T) {
	t.Chdir(t.TempDir())
	sc := serveScale{ingestRate: 2560, assignRate: 100, snapshotRate: 20, eventsRate: 5, warmupPoints: warmupBatch, setups: 1}
	tl := newTally()
	if err := runServeMixed(1, 1, sc, tl, false); err != nil {
		t.Fatal(err)
	}
	checkTally(t, tl)
	// One second at these rates: 20 ingest and 100 assign requests.
	if a, i := tl.pooled(assignOf).n(), tl.pooled(ingestOf).n(); a < 90 || i < 15 {
		t.Fatalf("assign %d, ingest %d requests timed", a, i)
	}
}

func checkTally(t *testing.T, tl *tally) {
	t.Helper()
	if tl.failed != 0 || tl.attempted == 0 {
		t.Fatalf("%d of %d operations failed", tl.failed, tl.attempted)
	}
	if len(tl.setup) == 0 || len(tl.heapMB) == 0 || len(tl.purity) == 0 || len(tl.eps) == 0 || tl.eps[0].points == 0 {
		t.Fatalf("empty tally: setup %v heap %v purity %v episodes %d", tl.setup, tl.heapMB, tl.purity, len(tl.eps))
	}
	for _, kind := range []func(*episode) *timings{ingestOf, assignOf, snapshotOf} {
		if tl.pooled(kind).n() == 0 {
			t.Fatal("an operation kind has no timings")
		}
	}
}
