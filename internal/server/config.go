// Package server exposes an EDMStream clusterer over HTTP/JSON: the
// edmserved network daemon. It splits the engine's two personalities
// the way the engine itself does — a single-owner write path and a
// lock-free read path:
//
//   - Writes (POST /v1/ingest) flow through a request coalescer: one
//     writer owns the clusterer and group-commits — everything that
//     queued while the previous commit ran goes into a single
//     InsertBatchAssigned call, so the engine amortizes its per-point
//     bookkeeping over real batches under concurrent load, a lone
//     request never waits, and every request still gets its own
//     per-point cell acks.
//   - Reads (POST /v1/assign, GET /v1/snapshot, /v1/clusters/{id},
//     /v1/events, /v1/stats) are served straight from the engine's
//     atomically published state on the request goroutine — they never
//     queue behind writes and never block them.
//
// GET /v1/events supports cursor-based long-polling against the
// engine's evolution log (EventsSince), GET /metrics exports
// operational telemetry (internal/obs) in Prometheus text format, and
// Shutdown drains accepted ingest work before returning so no
// acknowledged point is ever lost.
package server

import (
	"fmt"
	"net"
	"runtime"
	"time"

	"github.com/densitymountain/edmstream"

	"github.com/densitymountain/edmstream/internal/archive"
	"github.com/densitymountain/edmstream/internal/wal"
)

// Config configures the serving daemon. The zero value is usable for
// tests; every field has a default.
type Config struct {
	// Addr is the TCP listen address, e.g. ":8080" or
	// "127.0.0.1:0" (ephemeral port, the test default). Default
	// "127.0.0.1:8080".
	Addr string
	// CoalesceWindow is ignored: the coalescer group-commits, taking
	// whatever queued during the previous commit and never holding a
	// batch open for more.
	//
	// Deprecated: kept so existing configurations still compile.
	CoalesceWindow time.Duration
	// MaxBatch caps the number of points one coalesced InsertBatch
	// call may carry; a request that would overflow a batch triggers
	// the next one instead. It also caps a single request's point
	// count (larger requests are rejected with 400 — split them
	// client-side). Zero means the default 4096; negative is invalid.
	MaxBatch int
	// MaxPending bounds the ingest queue: the number of HTTP requests
	// that may sit between acceptance and commit. A full queue makes
	// further ingest requests wait (backpressure), not fail. Zero
	// means the default 1024; negative is invalid.
	MaxPending int
	// LongPollTimeout caps how long GET /v1/events may hold a
	// long-poll open before returning an empty page; a request's wait
	// parameter is clamped to it. Zero means the default 30s;
	// negative is invalid.
	LongPollTimeout time.Duration
	// MaxBodyBytes caps the size of a request body. Zero means the
	// default 8 MiB; negative is invalid.
	MaxBodyBytes int64
	// DataDir enables durability: when non-empty, every coalesced
	// ingest batch is appended to a write-ahead log in this directory
	// and fsynced before it is committed and acknowledged, so an HTTP
	// 200 means the points survive a crash. On startup the server
	// recovers the engine from the newest checkpoint plus the log tail.
	// Empty (the default) serves purely in memory.
	DataDir string
	// WALSegmentBytes is the WAL's segment rotation threshold. Zero
	// means the log's default (64 MiB); negative is invalid. Ignored
	// without DataDir.
	WALSegmentBytes int64
	// WALNoSync disables the fsync-before-ack: acknowledged batches
	// reach the kernel but may be lost in a crash (the log is still
	// written and recovery still works over what survived). A
	// throughput escape hatch, not a default. Ignored without DataDir.
	WALNoSync bool
	// CheckpointEvery is how many committed points may pass between
	// engine checkpoints into the WAL; smaller means faster recovery,
	// larger means less checkpoint I/O. A final checkpoint is also
	// taken at graceful shutdown. Zero means the default 50000;
	// negative is invalid. Ignored without DataDir.
	CheckpointEvery int
	// ReadTimeout is the http.Server read timeout: the maximum time to
	// read a whole request, body included. Zero means the default 30s;
	// negative is invalid.
	ReadTimeout time.Duration
	// WriteTimeout is the http.Server write timeout. It must leave room
	// for /v1/events long-polls, so when set it has to exceed the
	// effective LongPollTimeout; zero means the default
	// LongPollTimeout + 30s. Negative is invalid.
	WriteTimeout time.Duration
	// IdleTimeout is how long an idle keep-alive connection is kept
	// open. Zero means the default 120s; negative is invalid.
	IdleTimeout time.Duration
	// IngestDeadline is the ingest admission deadline: a request whose
	// estimated commit wait (live queue depth times the observed flush
	// latency) exceeds it is shed with 429 + Retry-After before its
	// body is read, and a request that cannot enter the coalescer queue
	// within it is shed with 429 as well. Once admitted a request is
	// always serviced. Zero means the default 5s; negative is invalid.
	IngestDeadline time.Duration
	// MaxReadConcurrency bounds the number of read requests (assign,
	// snapshot, cluster) served at once; requests beyond it are shed
	// with 429 instead of piling onto a saturated process. Operator
	// endpoints (stats, healthz, metrics, events) are exempt so the
	// server stays observable under load. Zero means the default 256;
	// negative is invalid.
	MaxReadConcurrency int
	// DegradedProbeInterval is how often the writer goroutine, while
	// the server sits in WAL-failure degraded mode, probes the log
	// directory (reopen + checkpoint) to recover automatically. Zero
	// means the default 1s; negative is invalid. Ignored without
	// DataDir.
	DegradedProbeInterval time.Duration
	// WALRetryAttempts is the total number of tries (first attempt
	// included) a durable batch append gets before the failure flips
	// the server into degraded mode; between tries the WAL handle is
	// reopened and recovery repairs any torn tail. Zero means the
	// default 3; 1 disables retries; negative is invalid. Ignored
	// without DataDir.
	WALRetryAttempts int
	// WALFS is the filesystem the WAL runs on; nil means the real one.
	// The chaos drill and the fault-injection tests plug a wal.FaultFS
	// in here. Ignored without DataDir.
	WALFS wal.FS
	// ArchiveURL enables the remote archive: sealed WAL segments and
	// finished checkpoints are shipped asynchronously to this object
	// store ("file://<path>" or a plain directory path). The archive is
	// a disaster-recovery replica, never the ack authority: a remote
	// outage shows up as archive lag in /healthz and /v1/stats, it
	// never blocks or fails ingest. Requires DataDir.
	ArchiveURL string
	// ArchiveStore, when non-nil, is the object store to ship to,
	// overriding ArchiveURL resolution — the seam the disaster drill
	// uses to inject an archive.FaultStore. Requires DataDir.
	ArchiveStore archive.ObjectStore
	// ArchiveQueue bounds the shipper's notification queue; a full
	// queue drops notifications (repaired by resync) rather than ever
	// blocking the WAL writer. Zero means the default 64; negative is
	// invalid. Ignored without an archive.
	ArchiveQueue int
	// ArchiveRetryBase/ArchiveRetryMax shape the shipper's jittered
	// exponential backoff between upload attempts. Zero means the
	// defaults 100ms / 5s; negative is invalid. Ignored without an
	// archive.
	ArchiveRetryBase time.Duration
	ArchiveRetryMax  time.Duration
	// ArchiveResync is how often the shipper, after drops or failures,
	// rescans the WAL directory and ships whatever the remote is
	// missing. Zero means the default 30s; negative is invalid. Ignored
	// without an archive.
	ArchiveResync time.Duration
	// RecoveryBudget bounds estimated crash-recovery time: when the
	// WAL tail would take longer than this to replay (at the replay
	// rate measured during the last recovery, or the live ingest apply
	// rate before any recovery has run), a checkpoint is taken even if
	// CheckpointEvery has not been reached. Zero disables the budget;
	// negative is invalid. Requires DataDir.
	RecoveryBudget time.Duration
	// CheckpointCompress writes WAL checkpoints gzip-compressed (the
	// integrity header still describes the uncompressed payload, so
	// corruption detection is unchanged, and readers accept both
	// formats regardless of this setting). Requires DataDir.
	CheckpointCompress bool
	// RestoreFromArchive rebuilds an EMPTY data directory from the
	// archive before opening it: every remote checkpoint and segment is
	// downloaded and the normal recovery path replays the result. A
	// data directory that already holds WAL state fails the restore
	// (local state is the durability authority). Requires an archive.
	RestoreFromArchive bool
	// NewEngine is the engine factory behind the multi-tenant plane:
	// the first POST /v1/{stream}/ingest on a new name (and every
	// revival of an evicted one) builds the stream's clusterer through
	// it. Nil disables named streams — only the default stream (the
	// clusterer passed to New) is served, and /v1/{stream}/* requests
	// on other names fail with 501.
	NewEngine func() (*edmstream.Clusterer, error)
	// MaxStreams caps how many stream names the registry holds (live
	// plus evicted-but-revivable, the default stream included).
	// Creating past the cap is shed with 429 reason "overloaded". Zero
	// means the default 1024; negative is invalid.
	MaxStreams int
	// WriterPool bounds the shared writer goroutines every stream's
	// ingest path multiplexes over. Streams take turns batch-by-batch
	// (round-robin), so one hot tenant cannot starve the rest. Zero
	// means GOMAXPROCS; negative is invalid.
	WriterPool int
	// MemoryBudget is the global resident-footprint target in bytes:
	// when the estimated memory of all live streams exceeds it, the
	// janitor checkpoints the least-recently-used idle streams to disk
	// and releases them (they revive transparently on the next touch).
	// Zero disables budget-driven eviction. Must be at least
	// MinMemoryBudget (one engine's floor) and requires DataDir —
	// eviction without a WAL would lose data.
	MemoryBudget int64
	// EvictIdleAfter evicts any stream untouched for this long, budget
	// pressure or not. Zero disables idle eviction; negative is
	// invalid. Requires DataDir.
	EvictIdleAfter time.Duration
	// SweepInterval is the janitor cadence: how often the eviction
	// sweep (memory budget + idle age) runs. Zero means the default 1s;
	// negative is invalid.
	SweepInterval time.Duration
}

// Defaults.
const (
	defaultAddr            = "127.0.0.1:8080"
	defaultMaxBatch        = 4096
	defaultMaxPending      = 1024
	defaultLongPollTimeout = 30 * time.Second
	defaultMaxBodyBytes    = 8 << 20
	defaultCheckpointEvery = 50000

	defaultReadTimeout           = 30 * time.Second
	defaultIdleTimeout           = 120 * time.Second
	defaultWriteTimeoutSlack     = 30 * time.Second // added to LongPollTimeout
	defaultIngestDeadline        = 5 * time.Second
	defaultMaxReadConcurrency    = 256
	defaultDegradedProbeInterval = time.Second
	defaultWALRetryAttempts      = 3

	defaultArchiveQueue     = 64
	defaultArchiveRetryBase = 100 * time.Millisecond
	defaultArchiveRetryMax  = 5 * time.Second
	defaultArchiveResync    = 30 * time.Second

	defaultMaxStreams    = 1024
	defaultSweepInterval = time.Second
)

// archiveConfigured reports whether an archive destination is set.
func (c Config) archiveConfigured() bool {
	return c.ArchiveURL != "" || c.ArchiveStore != nil
}

// withDefaults returns a copy with defaults filled in.
func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = defaultAddr
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = defaultMaxBatch
	}
	if c.MaxPending == 0 {
		c.MaxPending = defaultMaxPending
	}
	if c.LongPollTimeout == 0 {
		c.LongPollTimeout = defaultLongPollTimeout
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = defaultMaxBodyBytes
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = defaultCheckpointEvery
	}
	if c.ReadTimeout == 0 {
		c.ReadTimeout = defaultReadTimeout
	}
	if c.WriteTimeout == 0 {
		// Long-poll aware: the write deadline starts when the request
		// headers are read, and an /v1/events response may legitimately
		// come LongPollTimeout later.
		c.WriteTimeout = c.LongPollTimeout + defaultWriteTimeoutSlack
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = defaultIdleTimeout
	}
	if c.IngestDeadline == 0 {
		c.IngestDeadline = defaultIngestDeadline
	}
	if c.MaxReadConcurrency == 0 {
		c.MaxReadConcurrency = defaultMaxReadConcurrency
	}
	if c.DegradedProbeInterval == 0 {
		c.DegradedProbeInterval = defaultDegradedProbeInterval
	}
	if c.WALRetryAttempts == 0 {
		c.WALRetryAttempts = defaultWALRetryAttempts
	}
	if c.MaxStreams == 0 {
		c.MaxStreams = defaultMaxStreams
	}
	if c.WriterPool == 0 {
		c.WriterPool = runtime.GOMAXPROCS(0)
	}
	if c.SweepInterval == 0 {
		c.SweepInterval = defaultSweepInterval
	}
	// The archive knobs only default when an archive is configured, so
	// a zero-valued (archiveless) Config stays exactly zero-valued.
	if c.archiveConfigured() {
		if c.ArchiveQueue == 0 {
			c.ArchiveQueue = defaultArchiveQueue
		}
		if c.ArchiveRetryBase == 0 {
			c.ArchiveRetryBase = defaultArchiveRetryBase
		}
		if c.ArchiveRetryMax == 0 {
			c.ArchiveRetryMax = defaultArchiveRetryMax
		}
		if c.ArchiveResync == 0 {
			c.ArchiveResync = defaultArchiveResync
		}
	}
	return c
}

// DefaultConfig returns the production defaults.
func DefaultConfig() Config {
	return Config{}.withDefaults()
}

// Validate checks the configuration, rejecting nonsense values with
// errors naming the field and the constraint.
func (c Config) Validate() error {
	if c.MaxBatch < 0 {
		return fmt.Errorf("server: MaxBatch must be non-negative (0 means the default %d), got %d", defaultMaxBatch, c.MaxBatch)
	}
	if c.MaxPending < 0 {
		return fmt.Errorf("server: MaxPending must be non-negative (0 means the default %d), got %d", defaultMaxPending, c.MaxPending)
	}
	if c.LongPollTimeout < 0 {
		return fmt.Errorf("server: LongPollTimeout must be non-negative (0 means the default %v), got %v", defaultLongPollTimeout, c.LongPollTimeout)
	}
	if c.MaxBodyBytes < 0 {
		return fmt.Errorf("server: MaxBodyBytes must be non-negative (0 means the default %d), got %d", int64(defaultMaxBodyBytes), c.MaxBodyBytes)
	}
	if c.Addr != "" {
		if _, _, err := net.SplitHostPort(c.Addr); err != nil {
			return fmt.Errorf("server: Addr %q is not a host:port listen address: %w", c.Addr, err)
		}
	}
	if c.WALSegmentBytes < 0 {
		return fmt.Errorf("server: WALSegmentBytes must be non-negative (0 means the WAL default), got %d", c.WALSegmentBytes)
	}
	if c.CheckpointEvery < 0 {
		return fmt.Errorf("server: CheckpointEvery must be non-negative (0 means the default %d), got %d", defaultCheckpointEvery, c.CheckpointEvery)
	}
	if c.DataDir == "" && c.WALNoSync {
		return fmt.Errorf("server: WALNoSync is set but DataDir is empty — there is no WAL to skip syncing")
	}
	if c.ReadTimeout < 0 {
		return fmt.Errorf("server: ReadTimeout must be non-negative (0 means the default %v), got %v", defaultReadTimeout, c.ReadTimeout)
	}
	if c.WriteTimeout < 0 {
		return fmt.Errorf("server: WriteTimeout must be non-negative (0 means LongPollTimeout + %v), got %v", defaultWriteTimeoutSlack, c.WriteTimeout)
	}
	if c.WriteTimeout > 0 {
		// Compare against the effective long-poll cap so a custom
		// WriteTimeout cannot silently cut long-polls short.
		longPoll := c.LongPollTimeout
		if longPoll == 0 {
			longPoll = defaultLongPollTimeout
		}
		if c.WriteTimeout <= longPoll {
			return fmt.Errorf("server: WriteTimeout %v must exceed the %v LongPollTimeout or /v1/events long-polls die mid-hold", c.WriteTimeout, longPoll)
		}
	}
	if c.IdleTimeout < 0 {
		return fmt.Errorf("server: IdleTimeout must be non-negative (0 means the default %v), got %v", defaultIdleTimeout, c.IdleTimeout)
	}
	if c.IngestDeadline < 0 {
		return fmt.Errorf("server: IngestDeadline must be non-negative (0 means the default %v), got %v", defaultIngestDeadline, c.IngestDeadline)
	}
	if c.MaxReadConcurrency < 0 {
		return fmt.Errorf("server: MaxReadConcurrency must be non-negative (0 means the default %d), got %d", defaultMaxReadConcurrency, c.MaxReadConcurrency)
	}
	if c.DegradedProbeInterval < 0 {
		return fmt.Errorf("server: DegradedProbeInterval must be non-negative (0 means the default %v), got %v", defaultDegradedProbeInterval, c.DegradedProbeInterval)
	}
	if c.WALRetryAttempts < 0 {
		return fmt.Errorf("server: WALRetryAttempts must be non-negative (0 means the default %d), got %d", defaultWALRetryAttempts, c.WALRetryAttempts)
	}
	if c.ArchiveQueue < 0 {
		return fmt.Errorf("server: ArchiveQueue must be non-negative (0 means the default %d), got %d", defaultArchiveQueue, c.ArchiveQueue)
	}
	if c.ArchiveRetryBase < 0 {
		return fmt.Errorf("server: ArchiveRetryBase must be non-negative (0 means the default %v), got %v", defaultArchiveRetryBase, c.ArchiveRetryBase)
	}
	if c.ArchiveRetryMax < 0 {
		return fmt.Errorf("server: ArchiveRetryMax must be non-negative (0 means the default %v), got %v", defaultArchiveRetryMax, c.ArchiveRetryMax)
	}
	if c.ArchiveRetryBase > 0 && c.ArchiveRetryMax > 0 && c.ArchiveRetryMax < c.ArchiveRetryBase {
		return fmt.Errorf("server: ArchiveRetryMax %v must be at least ArchiveRetryBase %v", c.ArchiveRetryMax, c.ArchiveRetryBase)
	}
	if c.ArchiveResync < 0 {
		return fmt.Errorf("server: ArchiveResync must be non-negative (0 means the default %v), got %v", defaultArchiveResync, c.ArchiveResync)
	}
	if c.RecoveryBudget < 0 {
		return fmt.Errorf("server: RecoveryBudget must be non-negative (0 disables the budget), got %v", c.RecoveryBudget)
	}
	if c.archiveConfigured() && c.DataDir == "" {
		return fmt.Errorf("server: an archive is configured but DataDir is empty — there is no WAL to ship")
	}
	if !c.archiveConfigured() {
		if c.RestoreFromArchive {
			return fmt.Errorf("server: RestoreFromArchive is set but no archive is configured — there is nothing to restore from")
		}
		if c.ArchiveQueue > 0 || c.ArchiveRetryBase > 0 || c.ArchiveRetryMax > 0 || c.ArchiveResync > 0 {
			return fmt.Errorf("server: archive shipper knobs are set but no archive is configured — set ArchiveURL (or ArchiveStore)")
		}
	}
	if c.DataDir == "" {
		if c.CheckpointCompress {
			return fmt.Errorf("server: CheckpointCompress is set but DataDir is empty — there are no checkpoints to compress")
		}
		if c.RecoveryBudget > 0 {
			return fmt.Errorf("server: RecoveryBudget is set but DataDir is empty — there is no WAL to bound recovery for")
		}
	}
	if c.MaxStreams < 0 {
		return fmt.Errorf("server: MaxStreams must be non-negative (0 means the default %d), got %d", defaultMaxStreams, c.MaxStreams)
	}
	if c.MaxStreams == 1 && c.NewEngine != nil {
		return fmt.Errorf("server: MaxStreams 1 leaves room only for the default stream — the engine factory could never build a named one")
	}
	if c.WriterPool < 0 {
		return fmt.Errorf("server: WriterPool must be non-negative (0 means GOMAXPROCS), got %d", c.WriterPool)
	}
	if c.MemoryBudget < 0 {
		return fmt.Errorf("server: MemoryBudget must be non-negative (0 disables budget eviction), got %d", c.MemoryBudget)
	}
	if c.MemoryBudget > 0 {
		if c.MemoryBudget < MinMemoryBudget {
			return fmt.Errorf("server: MemoryBudget %d is below one engine's %d-byte floor — it would evict every stream on every sweep", c.MemoryBudget, int64(MinMemoryBudget))
		}
		if c.DataDir == "" {
			return fmt.Errorf("server: MemoryBudget is set but DataDir is empty — evicting a stream without a WAL would lose its data")
		}
	}
	if c.EvictIdleAfter < 0 {
		return fmt.Errorf("server: EvictIdleAfter must be non-negative (0 disables idle eviction), got %v", c.EvictIdleAfter)
	}
	if c.EvictIdleAfter > 0 && c.DataDir == "" {
		return fmt.Errorf("server: EvictIdleAfter is set but DataDir is empty — evicting a stream without a WAL would lose its data")
	}
	if c.SweepInterval < 0 {
		return fmt.Errorf("server: SweepInterval must be non-negative (0 means the default %v), got %v", defaultSweepInterval, c.SweepInterval)
	}
	return nil
}
