package bench

import (
	"testing"
)

// TestRunE2ESmoke boots the real server and pushes a small load
// through every driver (writers, readers, events, snapshot), then
// checks the report's internal consistency and the JSON artifact.
func TestRunE2ESmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("network e2e experiment in -short mode")
	}
	s := Scale{Points: 3000, Seed: 1, Rate: 1000}
	rep, err := RunE2E(s)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != "edmstream-e2e/v1" {
		t.Errorf("schema = %q", rep.Schema)
	}
	// The writers round down to whole batches.
	wantPts := int64(s.Points/e2eIngestBatch) * e2eIngestBatch
	if rep.IngestPoints != wantPts {
		t.Errorf("ingest points = %d, want %d", rep.IngestPoints, wantPts)
	}
	if rep.IngestPointsPerSec <= 0 || rep.WallSeconds <= 0 {
		t.Errorf("throughput not measured: %+v", rep)
	}
	if rep.AssignQueries == 0 || rep.AssignQPS <= 0 {
		t.Errorf("readers did no work: %+v", rep)
	}
	if rep.AssignHitRate <= 0.5 {
		t.Errorf("assign hit rate %.3f: published clustering not serving", rep.AssignHitRate)
	}
	if rep.Coalescer.Batches == 0 || rep.Coalescer.BatchPointsP50 < e2eIngestBatch {
		t.Errorf("coalescer distribution empty or sub-request batches: %+v", rep.Coalescer)
	}
	endpoints := map[string]bool{}
	for _, e := range rep.Endpoints {
		endpoints[e.Endpoint] = true
		if e.Requests == 0 || e.P99Micros < e.P50Micros || e.MaxMicros < e.P99Micros {
			t.Errorf("inconsistent quantiles for %s: %+v", e.Endpoint, e)
		}
	}
	for _, want := range []string{"ingest", "assign", "events", "snapshot"} {
		if !endpoints[want] {
			t.Errorf("no latency recorded for endpoint %s", want)
		}
	}
	if FormatE2E(rep) == "" {
		t.Error("empty formatted report")
	}

	roundTripArtifact(t, rep)
}
