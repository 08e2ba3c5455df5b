package bench

import "testing"

// TestRunTenantsSmoke runs the full multi-tenant drill at a small
// scale: 32 streams over the bounded writer pool under a budget that
// forces eviction churn, a SIGKILL mid-traffic, a restart on the same
// data directory, and every stream verified byte-identical to a solo
// replay of its recovered prefix. Every contract violation is an error
// from RunTenants, so most of the assertion weight is inside the drill.
func TestRunTenantsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("process-spawning tenancy drill in -short mode")
	}
	rep, err := RunTenants(Scale{Points: 2048, Seed: 1, Rate: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != "edmstream-tenancy/v1" {
		t.Errorf("schema = %q", rep.Schema)
	}
	if rep.EvictionsBeforeKill == 0 {
		t.Error("no evictions before the kill")
	}
	if rep.StreamsVerified != tenantStreams || len(rep.PerStream) != tenantStreams {
		t.Errorf("verified %d of %d streams (%d reported)", rep.StreamsVerified, tenantStreams, len(rep.PerStream))
	}
	for _, ps := range rep.PerStream {
		if !ps.SnapshotIdentical || ps.RecoveredBatches < ps.AckedBatches || ps.RecoveredBatches > ps.AckedBatches+1 {
			t.Errorf("stream ledger out of contract: %+v", ps)
		}
	}
	if rep.RevivalsAfterRestart < tenantStreams {
		t.Errorf("revivals after restart = %d, want >= %d", rep.RevivalsAfterRestart, tenantStreams)
	}
	if !rep.PostRestartLive {
		t.Error("restarted child did not accept post-restart ingest")
	}
	if FormatTenants(rep) == "" {
		t.Error("empty formatted report")
	}
	roundTripArtifact(t, rep)
}
