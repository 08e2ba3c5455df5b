package server

import (
	"strings"
	"testing"
	"time"

	"github.com/densitymountain/edmstream"
)

// newTestEngine is the factory the tenancy validation rows wire in;
// validation only checks nil-ness, so the engine itself never builds.
func newTestEngine() (*edmstream.Clusterer, error) {
	return edmstream.New(testOptions())
}

// TestConfigValidate is the options table test: every nonsense value
// is rejected with an error naming the field, and the documented
// defaults fill in for zero values.
func TestConfigValidate(t *testing.T) {
	good := []Config{
		{}, // zero value: all defaults
		DefaultConfig(),
		{Addr: "127.0.0.1:0"},
		{Addr: ":8080"},
		{MaxBatch: 1},
		{MaxPending: 1},
		{LongPollTimeout: time.Second},
		{MaxBodyBytes: 1 << 10},
		{ReadTimeout: time.Second},
		{WriteTimeout: 45 * time.Second}, // clears the default long-poll hold
		{LongPollTimeout: time.Second, WriteTimeout: 2 * time.Second},
		{IdleTimeout: time.Minute},
		{IngestDeadline: time.Millisecond},
		{MaxReadConcurrency: 1},
		{DegradedProbeInterval: 10 * time.Millisecond},
		{WALRetryAttempts: 1},
		{MaxStreams: 2},
		{WriterPool: 2},
		{MemoryBudget: MinMemoryBudget, DataDir: "x"},
		{EvictIdleAfter: time.Minute, DataDir: "x"},
		{SweepInterval: 100 * time.Millisecond},
	}
	for i, cfg := range good {
		if err := cfg.Validate(); err != nil {
			t.Errorf("good config %d rejected: %v", i, err)
		}
	}

	bad := []struct {
		cfg  Config
		want string // substring the error must carry (the field name)
	}{
		{Config{MaxBatch: -1}, "MaxBatch"},
		{Config{MaxPending: -5}, "MaxPending"},
		{Config{LongPollTimeout: -time.Second}, "LongPollTimeout"},
		{Config{MaxBodyBytes: -1}, "MaxBodyBytes"},
		{Config{Addr: "no-port"}, "Addr"},
		{Config{Addr: "1.2.3.4"}, "Addr"},
		{Config{ReadTimeout: -time.Second}, "ReadTimeout"},
		{Config{WriteTimeout: -time.Second}, "WriteTimeout"},
		// A write timeout inside the long-poll hold would kill every
		// /v1/events long-poll mid-wait.
		{Config{WriteTimeout: time.Second}, "WriteTimeout"},
		{Config{LongPollTimeout: 10 * time.Second, WriteTimeout: 5 * time.Second}, "WriteTimeout"},
		{Config{IdleTimeout: -time.Second}, "IdleTimeout"},
		{Config{IngestDeadline: -time.Millisecond}, "IngestDeadline"},
		{Config{MaxReadConcurrency: -1}, "MaxReadConcurrency"},
		{Config{DegradedProbeInterval: -time.Second}, "DegradedProbeInterval"},
		{Config{WALRetryAttempts: -1}, "WALRetryAttempts"},
		{Config{MaxStreams: -1}, "MaxStreams"},
		// A one-stream cap with a factory wired could never build the
		// named streams the factory exists for.
		{Config{MaxStreams: 1, NewEngine: newTestEngine}, "MaxStreams"},
		{Config{WriterPool: -1}, "WriterPool"},
		{Config{MemoryBudget: -1}, "MemoryBudget"},
		// A budget below one engine's floor evicts every stream on
		// every sweep; reject it up front.
		{Config{MemoryBudget: MinMemoryBudget - 1, DataDir: "x"}, "MemoryBudget"},
		// Eviction checkpoints to disk; without a DataDir it would lose
		// acknowledged data.
		{Config{MemoryBudget: MinMemoryBudget}, "MemoryBudget"},
		{Config{EvictIdleAfter: -time.Second}, "EvictIdleAfter"},
		{Config{EvictIdleAfter: time.Minute}, "EvictIdleAfter"},
		{Config{SweepInterval: -time.Second}, "SweepInterval"},
	}
	for i, tc := range bad {
		err := tc.cfg.Validate()
		if err == nil {
			t.Errorf("bad config %d accepted: %+v", i, tc.cfg)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("bad config %d: error %q does not name %s", i, err, tc.want)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	d := Config{}.withDefaults()
	if d.Addr != defaultAddr || d.MaxBatch != defaultMaxBatch ||
		d.MaxPending != defaultMaxPending || d.LongPollTimeout != defaultLongPollTimeout ||
		d.MaxBodyBytes != defaultMaxBodyBytes {
		t.Errorf("zero config defaults wrong: %+v", d)
	}
	if d.ReadTimeout != defaultReadTimeout || d.IdleTimeout != defaultIdleTimeout ||
		d.IngestDeadline != defaultIngestDeadline || d.MaxReadConcurrency != defaultMaxReadConcurrency ||
		d.DegradedProbeInterval != defaultDegradedProbeInterval || d.WALRetryAttempts != defaultWALRetryAttempts {
		t.Errorf("resilience defaults wrong: %+v", d)
	}
	if want := d.LongPollTimeout + defaultWriteTimeoutSlack; d.WriteTimeout != want {
		t.Errorf("WriteTimeout default = %v, want LongPollTimeout + slack = %v", d.WriteTimeout, want)
	}
	if d.MaxStreams != defaultMaxStreams || d.WriterPool < 1 ||
		d.SweepInterval != defaultSweepInterval {
		t.Errorf("tenancy defaults wrong: MaxStreams=%d WriterPool=%d SweepInterval=%v",
			d.MaxStreams, d.WriterPool, d.SweepInterval)
	}
	// Zero budget / zero idle-eviction are real settings (disabled),
	// not unset markers.
	if d.MemoryBudget != 0 || d.EvictIdleAfter != 0 {
		t.Errorf("MemoryBudget/EvictIdleAfter must default to disabled, got %d/%v",
			d.MemoryBudget, d.EvictIdleAfter)
	}
}
