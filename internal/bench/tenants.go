package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/densitymountain/edmstream"
	"github.com/densitymountain/edmstream/internal/server"
	"github.com/densitymountain/edmstream/internal/stream"
)

// This file holds the multi-tenant serving drill: many named streams
// multiplexed over the bounded writer pool, under a memory budget
// small enough that the evictor churns engines to disk and back while
// traffic is live. Phase one measures the single-stream sequential
// baseline every acceptance ratio is against. Phase two boots a child
// edmserved process with tenantStreams streams, drives one sequential
// writer per stream, SIGKILLs the child mid-traffic, restarts it on
// the same data directory, and requires every stream's recovered
// clustering to be byte-identical to a solo reference replay of
// exactly that stream's acknowledged batches — multi-tenancy may cost
// latency, never isolation or durability.

const (
	// tenantStreams is how many named streams the drill runs
	// concurrently (the acceptance floor is 32).
	tenantStreams = 32
	// tenantWriters is the client goroutine count; each one round-robins
	// over tenantStreams/tenantWriters streams, one batch per turn. The
	// rotation is what makes eviction churn possible at all: a stream
	// whose writer never pauses keeps its pool handle queued or running,
	// and the evictor (correctly) refuses to touch it — real tenants
	// interleave, so the drill's traffic does too.
	tenantWriters = 8
	// tenantChildEnv marks a process as the drill's serving child.
	tenantChildEnv = "EDMBENCH_TENANTS_CHILD"
	// tenantSweepInterval keeps the evictor hot while traffic runs.
	tenantSweepInterval = 5 * time.Millisecond
	// tenantEvictIdle evicts anything untouched for this long, so the
	// idle path churns alongside the budget path.
	tenantEvictIdle = 500 * time.Millisecond
)

// tenantBudget is the global memory budget the child runs under:
// room for roughly half the streams, so the LRU evictor is always
// working while all of them carry traffic.
func tenantBudget() int64 {
	return int64(tenantStreams/2) * server.MinMemoryBudget
}

// TenantStreamResult is one stream's ledger through the kill drill.
type TenantStreamResult struct {
	Stream string `json:"stream"`
	// AckedBatches is how many batches had an HTTP 200 before the
	// SIGKILL; RecoveredBatches is what the restarted child holds. The
	// contract: acked <= recovered <= acked+1 (the one in-flight batch
	// may have committed before its response was cut).
	AckedBatches      int  `json:"acked_batches"`
	RecoveredBatches  int  `json:"recovered_batches"`
	SnapshotIdentical bool `json:"snapshot_identical"`
}

// TenancyReport is the JSON-serializable outcome of the drill.
type TenancyReport struct {
	Schema           string `json:"schema"`
	Streams          int    `json:"streams"`
	BatchesPerStream int    `json:"batches_per_stream"`
	IngestBatch      int    `json:"ingest_batch"`
	MemoryBudget     int64  `json:"memory_budget_bytes"`
	WriterPool       int    `json:"writer_pool"`

	// BaselinePointsPerSec is the phase-one single-stream sequential
	// writer; AggregatePointsPerSec is all tenantStreams writers
	// together under budget churn, measured up to the kill threshold.
	BaselinePointsPerSec  float64 `json:"baseline_points_per_sec"`
	AggregatePointsPerSec float64 `json:"aggregate_points_per_sec"`
	AggregateSpeedup      float64 `json:"aggregate_speedup"`
	SpeedupAsserted       bool    `json:"speedup_asserted"`

	// EvictionsBeforeKill is the churn the budget forced while traffic
	// was live (the drill fails when it is zero — no churn, nothing
	// exercised). RevivalsAfterRestart counts the transparent revivals
	// the verification reads triggered in the restarted child.
	EvictionsBeforeKill  uint64 `json:"evictions_before_kill"`
	RevivalsAfterRestart uint64 `json:"revivals_after_restart"`

	AckedPoints     int64                `json:"acked_points"`
	RecoveredPoints int64                `json:"recovered_points"`
	StreamsVerified int                  `json:"streams_verified"`
	PerStream       []TenantStreamResult `json:"per_stream"`

	// PostRestartLive: the restarted child accepted fresh ingest on
	// revived streams (recovery yields a server, not a museum).
	PostRestartLive bool `json:"post_restart_live"`

	GOMAXPROCS int `json:"gomaxprocs"`
	NumCPU     int `json:"num_cpu"`
}

// tenantStatsBody is the slice of GET /v1/stats the drill consumes.
type tenantStatsBody struct {
	Engine struct {
		Points int64 `json:"Points"`
	} `json:"engine"`
	Server struct {
		Tenancy struct {
			StreamsLive int    `json:"streams_live"`
			WriterPool  int    `json:"writer_pool"`
			Evictions   uint64 `json:"evictions"`
			Revivals    uint64 `json:"revivals"`
		} `json:"tenancy"`
	} `json:"server"`
}

func tenantStats(client *http.Client, base, path string) (tenantStatsBody, error) {
	raw, err := getShedRetry(client, base+path, 8, 10*time.Millisecond, time.Second, nil)
	if err != nil {
		return tenantStatsBody{}, err
	}
	var st tenantStatsBody
	if err := json.Unmarshal(raw, &st); err != nil {
		return tenantStatsBody{}, fmt.Errorf("bench: stats response: %w", err)
	}
	return st, nil
}

// tenantWorkload builds every stream's deterministic input: distinct
// seeds, whole batches, one spare batch per stream for the liveness
// check after the restart.
func tenantWorkload(s Scale) (batches int, bodies [][][]byte, pts [][]stream.Point, err error) {
	batches = s.Points / (8 * e2eIngestBatch)
	if batches < 6 {
		batches = 6
	}
	perStream := (batches + 1) * e2eIngestBatch // +1 spare liveness batch
	bodies = make([][][]byte, tenantStreams)
	pts = make([][]stream.Point, tenantStreams)
	for i := 0; i < tenantStreams; i++ {
		pts[i] = ServeStream(perStream, s.Seed+int64(i), s.Rate)
		bodies[i], err = e2eBodies(pts[i])
		if err != nil {
			return 0, nil, nil, err
		}
	}
	return batches, bodies, pts, nil
}

// RunTenants runs the multi-tenant serving drill.
func RunTenants(s Scale) (TenancyReport, error) {
	batches, bodies, pts, err := tenantWorkload(s)
	if err != nil {
		return TenancyReport{}, err
	}
	rep := TenancyReport{
		Schema:           "edmstream-tenancy/v1",
		Streams:          tenantStreams,
		BatchesPerStream: batches,
		IngestBatch:      e2eIngestBatch,
		MemoryBudget:     tenantBudget(),
		GOMAXPROCS:       runtime.GOMAXPROCS(0),
		NumCPU:           runtime.NumCPU(),
	}

	baseline, err := runTenantBaseline(s, bodies[0][:batches])
	if err != nil {
		return TenancyReport{}, err
	}
	rep.BaselinePointsPerSec = baseline

	if err := runTenantKill(s, &rep, bodies, pts); err != nil {
		return rep, err
	}
	if rep.BaselinePointsPerSec > 0 {
		rep.AggregateSpeedup = rep.AggregatePointsPerSec / rep.BaselinePointsPerSec
	}

	// The scaling assertion needs real hardware parallelism: on a
	// 1-2 core runner the 32 writers timeshare a core and the ratio
	// measures the scheduler, not the pool.
	if procs := min(runtime.NumCPU(), runtime.GOMAXPROCS(0)); procs >= 4 {
		rep.SpeedupAsserted = true
		if rep.AggregatePointsPerSec < rep.BaselinePointsPerSec {
			return rep, fmt.Errorf("bench: %d tenant streams aggregate %.0f points/sec below the single-stream baseline %.0f",
				tenantStreams, rep.AggregatePointsPerSec, rep.BaselinePointsPerSec)
		}
	}
	return rep, nil
}

// runTenantBaseline measures one sequential writer on a solo durable
// single-stream server: the reference rate the multi-tenant aggregate
// is compared against.
func runTenantBaseline(s Scale, bodies [][]byte) (float64, error) {
	dir, err := os.MkdirTemp("", "edmbench-tenants-base-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	c, err := edmstream.New(e2eOptions(s.Rate))
	if err != nil {
		return 0, err
	}
	srv, err := server.New(c, server.Config{
		Addr:            "127.0.0.1:0",
		DataDir:         dir,
		CheckpointEvery: walCheckpointEvery,
	})
	if err != nil {
		return 0, fmt.Errorf("bench: building baseline server: %w", err)
	}
	if err := srv.Start(); err != nil {
		return 0, fmt.Errorf("bench: starting baseline server: %w", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()
	client := &http.Client{}
	base := "http://" + srv.Addr()
	begin := time.Now()
	for _, body := range bodies {
		if err := walPost(client, base, body); err != nil {
			return 0, fmt.Errorf("bench: baseline ingest: %w", err)
		}
	}
	wall := time.Since(begin)
	return float64(len(bodies)*e2eIngestBatch) / wall.Seconds(), nil
}

// startTenantChild re-execs this binary as the multi-tenant serving
// child and waits for its address (published only after server.New —
// after stream discovery and default-stream recovery).
func startTenantChild(exe, dataDir, addrFile string, rate float64) (*benchChild, error) {
	return startBenchChild(exe, []string{
		tenantChildEnv + "=1",
		"EDMBENCH_TENANTS_DIR=" + dataDir,
		"EDMBENCH_TENANTS_ADDR_FILE=" + addrFile,
		fmt.Sprintf("EDMBENCH_TENANTS_RATE=%g", rate),
		fmt.Sprintf("EDMBENCH_TENANTS_BUDGET=%d", tenantBudget()),
		fmt.Sprintf("EDMBENCH_TENANTS_CHECKPOINT_EVERY=%d", walCheckpointEvery),
	}, addrFile)
}

// runTenantKill is the churn-and-crash phase. One sequential writer
// per stream keeps every acknowledged set an exact batch prefix of
// its stream, which is what makes the per-stream reference replays
// well-defined.
func runTenantKill(s Scale, rep *TenancyReport, bodies [][][]byte, pts [][]stream.Point) error {
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("bench: locating own executable for the tenants child: %w", err)
	}
	base, err := os.MkdirTemp("", "edmbench-tenants-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(base)
	dataDir := filepath.Join(base, "data")
	addrFile := filepath.Join(base, "addr")
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        tenantStreams + 4,
		MaxIdleConnsPerHost: tenantStreams + 4,
	}}

	child, err := startTenantChild(exe, dataDir, addrFile, s.Rate)
	if err != nil {
		return err
	}
	childBase := "http://" + child.addr

	batches := rep.BatchesPerStream
	killAfter := int64(tenantStreams*batches) / 2
	var totalAcked atomic.Int64
	var killIssued atomic.Bool
	threshold := make(chan struct{})
	var thresholdOnce sync.Once

	acked := make([]int64, tenantStreams)
	writerErrs := make([]error, tenantWriters)
	var wg sync.WaitGroup
	begin := time.Now()
	var threshWall atomic.Int64 // nanoseconds to the kill threshold
	perWriter := tenantStreams / tenantWriters
	for w := 0; w < tenantWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Round-robin over this writer's streams, one batch per
			// turn: each stream stays strictly sequential (its acked set
			// is always an exact batch prefix) while sitting idle — and
			// evictable — between its turns.
			for b := 0; b < batches; b++ {
				for k := 0; k < perWriter; k++ {
					i := w*perWriter + k
					url := fmt.Sprintf("%s/v1/tenant-%02d/ingest", childBase, i)
					if _, err := postShedRetry(client, url, bodies[i][b], 8, 10*time.Millisecond, time.Second, nil); err != nil {
						// After the SIGKILL a failed request is the crash
						// happening — expected; before it, a real failure.
						if !killIssued.Load() {
							writerErrs[w] = err
						}
						return
					}
					atomic.AddInt64(&acked[i], 1)
					if totalAcked.Add(1) == killAfter {
						thresholdOnce.Do(func() {
							threshWall.Store(int64(time.Since(begin)))
							close(threshold)
						})
					}
				}
			}
		}(w)
	}
	writersDone := make(chan struct{})
	go func() { wg.Wait(); close(writersDone) }()
	select {
	case <-threshold:
	case <-writersDone:
		thresholdOnce.Do(func() {
			threshWall.Store(int64(time.Since(begin)))
			close(threshold)
		})
	}

	// Grab the churn ledger while the child is still alive, then kill
	// it mid-traffic.
	st, err := tenantStats(client, childBase, "/v1/stats")
	if err != nil {
		return fmt.Errorf("bench: pre-kill stats: %w", err)
	}
	rep.EvictionsBeforeKill = st.Server.Tenancy.Evictions
	rep.WriterPool = st.Server.Tenancy.WriterPool
	killIssued.Store(true)
	_ = child.cmd.Process.Kill() // SIGKILL: no flush, no goodbye
	<-child.wait
	<-writersDone
	for w, werr := range writerErrs {
		if werr != nil {
			return fmt.Errorf("bench: writer %d ingest before the kill: %w", w, werr)
		}
	}
	if rep.EvictionsBeforeKill == 0 {
		return fmt.Errorf("bench: no evictions before the kill — the %d-byte budget exerted no pressure over %d streams", rep.MemoryBudget, tenantStreams)
	}
	rep.AggregatePointsPerSec = float64(killAfter*e2eIngestBatch) / time.Duration(threshWall.Load()).Seconds()
	for i := range acked {
		rep.AckedPoints += acked[i] * e2eIngestBatch
	}

	// Restart on the same directory: discovery re-registers every named
	// stream, and each verification read revives one transparently.
	child2, err := startTenantChild(exe, dataDir, addrFile, s.Rate)
	if err != nil {
		return fmt.Errorf("bench: restarting after the kill: %w", err)
	}
	defer func() {
		if child2 != nil {
			_ = child2.cmd.Process.Kill()
			<-child2.wait
		}
	}()
	base2 := "http://" + child2.addr

	for i := 0; i < tenantStreams; i++ {
		name := fmt.Sprintf("tenant-%02d", i)
		res := TenantStreamResult{Stream: name, AckedBatches: int(acked[i])}
		st, err := tenantStats(client, base2, "/v1/"+name+"/stats")
		if err != nil {
			return fmt.Errorf("bench: %s post-restart stats: %w", name, err)
		}
		recovered := st.Engine.Points
		if recovered%e2eIngestBatch != 0 {
			return fmt.Errorf("bench: %s recovered a partial batch: %d points", name, recovered)
		}
		res.RecoveredBatches = int(recovered / e2eIngestBatch)
		rep.RecoveredPoints += recovered
		if res.RecoveredBatches < res.AckedBatches {
			rep.PerStream = append(rep.PerStream, res)
			return fmt.Errorf("bench: %s lost acknowledged batches: %d acked, %d recovered", name, res.AckedBatches, res.RecoveredBatches)
		}
		if res.RecoveredBatches > res.AckedBatches+1 {
			// One sequential writer has at most one in-flight request;
			// anything beyond acked+1 was invented.
			rep.PerStream = append(rep.PerStream, res)
			return fmt.Errorf("bench: %s recovered %d batches with only %d acked and one in flight", name, res.RecoveredBatches, res.AckedBatches)
		}

		// Solo reference replay of exactly the recovered prefix: a
		// fresh single-stream engine fed those batches directly must
		// publish the identical clustering — tenancy, eviction churn
		// and the crash were invisible to this stream's state.
		ref, err := edmstream.New(e2eOptions(s.Rate))
		if err != nil {
			return err
		}
		for b := 0; b < res.RecoveredBatches; b++ {
			if err := ref.InsertBatch(pts[i][b*e2eIngestBatch : (b+1)*e2eIngestBatch]); err != nil {
				return fmt.Errorf("bench: %s reference replay: %w", name, err)
			}
		}
		refSrv, err := server.New(ref, server.Config{Addr: "127.0.0.1:0"})
		if err != nil {
			return err
		}
		if err := refSrv.Start(); err != nil {
			return err
		}
		childSnap, err := walGet(client, base2, "/v1/"+name+"/snapshot")
		if err == nil {
			var refSnap []byte
			refSnap, err = walGet(client, "http://"+refSrv.Addr(), "/v1/snapshot")
			if err == nil && !bytes.Equal(childSnap, refSnap) {
				err = fmt.Errorf("bench: %s recovered clustering diverges from its solo replay of %d batches (%d vs %d snapshot bytes)",
					name, res.RecoveredBatches, len(childSnap), len(refSnap))
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		_ = refSrv.Shutdown(ctx)
		cancel()
		if err != nil {
			rep.PerStream = append(rep.PerStream, res)
			return err
		}
		res.SnapshotIdentical = true
		rep.StreamsVerified++
		rep.PerStream = append(rep.PerStream, res)
	}
	st2, err := tenantStats(client, base2, "/v1/stats")
	if err != nil {
		return err
	}
	rep.RevivalsAfterRestart = st2.Server.Tenancy.Revivals
	if rep.RevivalsAfterRestart < uint64(tenantStreams) {
		return fmt.Errorf("bench: only %d revivals after reading all %d streams", rep.RevivalsAfterRestart, tenantStreams)
	}

	// Liveness: revived streams keep accepting writes (the spare batch
	// generated beyond the sent range, so IDs never collide).
	for i := 0; i < tenantStreams; i += 8 {
		url := fmt.Sprintf("%s/v1/tenant-%02d/ingest", base2, i)
		if _, err := postShedRetry(client, url, bodies[i][batches], 8, 10*time.Millisecond, time.Second, nil); err != nil {
			return fmt.Errorf("bench: post-restart ingest on tenant-%02d: %w", i, err)
		}
	}
	rep.PostRestartLive = true

	// Graceful exit this time: SIGTERM must drain every stream's
	// coalescer and return 0.
	_ = child2.cmd.Process.Signal(syscall.SIGTERM)
	if err := <-child2.wait; err != nil {
		child2 = nil
		return fmt.Errorf("bench: graceful shutdown after recovery: %v", err)
	}
	child2 = nil
	return nil
}

// RunTenantsChild is the drill's serving child: a durable multi-tenant
// edmserved instance with an engine factory, a tight memory budget and
// a hot sweep cadence, configured through EDMBENCH_TENANTS_* variables.
func RunTenantsChild() error {
	dir := os.Getenv("EDMBENCH_TENANTS_DIR")
	addrFile := os.Getenv("EDMBENCH_TENANTS_ADDR_FILE")
	if dir == "" || addrFile == "" {
		return errors.New("bench: EDMBENCH_TENANTS_DIR and EDMBENCH_TENANTS_ADDR_FILE are required in child mode")
	}
	rate, err := strconv.ParseFloat(os.Getenv("EDMBENCH_TENANTS_RATE"), 64)
	if err != nil {
		return fmt.Errorf("bench: EDMBENCH_TENANTS_RATE: %w", err)
	}
	budget, err := strconv.ParseInt(os.Getenv("EDMBENCH_TENANTS_BUDGET"), 10, 64)
	if err != nil {
		return fmt.Errorf("bench: EDMBENCH_TENANTS_BUDGET: %w", err)
	}
	ckptEvery, err := strconv.Atoi(os.Getenv("EDMBENCH_TENANTS_CHECKPOINT_EVERY"))
	if err != nil {
		return fmt.Errorf("bench: EDMBENCH_TENANTS_CHECKPOINT_EVERY: %w", err)
	}

	c, err := edmstream.New(e2eOptions(rate))
	if err != nil {
		return err
	}
	srv, err := server.New(c, server.Config{
		Addr:            "127.0.0.1:0",
		DataDir:         dir,
		CheckpointEvery: ckptEvery,
		MemoryBudget:    budget,
		EvictIdleAfter:  tenantEvictIdle,
		SweepInterval:   tenantSweepInterval,
		NewEngine:       func() (*edmstream.Clusterer, error) { return edmstream.New(e2eOptions(rate)) },
	})
	if err != nil {
		return err
	}
	if err := srv.Start(); err != nil {
		return err
	}
	if err := publishAddr(addrFile, srv.Addr()); err != nil {
		return err
	}

	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGTERM, syscall.SIGINT)
	<-ch
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return srv.Shutdown(ctx)
}

// FormatTenants renders the report for the terminal.
func FormatTenants(rep TenancyReport) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "Multi-tenant serving: %d streams over a %d-writer pool, %.0f MiB budget\n",
		rep.Streams, rep.WriterPool, float64(rep.MemoryBudget)/(1<<20))
	fmt.Fprintf(&b, "  (gomaxprocs %d, %d CPUs, %d batches of %d points per stream)\n",
		rep.GOMAXPROCS, rep.NumCPU, rep.BatchesPerStream, rep.IngestBatch)
	fmt.Fprintf(&b, "throughput: single-stream baseline %.0f points/sec, %d-stream aggregate %.0f (%.2fx",
		rep.BaselinePointsPerSec, rep.Streams, rep.AggregatePointsPerSec, rep.AggregateSpeedup)
	if rep.SpeedupAsserted {
		fmt.Fprintf(&b, ", asserted)\n")
	} else {
		fmt.Fprintf(&b, ", not asserted: <4 usable CPUs)\n")
	}
	fmt.Fprintf(&b, "churn: %d evictions under budget pressure before the SIGKILL; %d revivals after the restart\n",
		rep.EvictionsBeforeKill, rep.RevivalsAfterRestart)
	fmt.Fprintf(&b, "kill-and-restart: %d points acked across %d streams; %d recovered\n",
		rep.AckedPoints, rep.Streams, rep.RecoveredPoints)
	fmt.Fprintf(&b, "  %d/%d streams byte-identical to their solo reference replays; post-restart ingest live: %v\n",
		rep.StreamsVerified, rep.Streams, rep.PostRestartLive)
	return b.String()
}

// WriteTenantsJSON writes the machine-readable artifact.
func WriteTenantsJSON(path string, rep TenancyReport) error {
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: marshaling tenancy report: %w", err)
	}
	raw = append(raw, '\n')
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return fmt.Errorf("bench: writing %s: %w", path, err)
	}
	return nil
}
