package bench

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"github.com/densitymountain/edmstream/internal/core"
	"github.com/densitymountain/edmstream/internal/stream"
)

// This file holds the ingestion throughput experiment (not in the
// paper): it measures per-point Insert against batched InsertBatch on
// a bursty 2-D lattice workload with over a thousand simultaneously
// active cluster-cells, and reports points/sec plus per-point
// allocation counts. cmd/edmbench writes the result as a
// BENCH_throughput.json artifact so the performance trajectory stays
// machine-readable across revisions.

// ThroughputBatchSize is the batch size the experiment feeds
// InsertBatch with.
const ThroughputBatchSize = 256

// ThroughputModeResult is the outcome of one ingestion mode's run.
type ThroughputModeResult struct {
	// Mode is "per-point" or "batch".
	Mode string `json:"mode"`
	// BatchSize is ThroughputBatchSize for the batch mode, 1 otherwise.
	BatchSize int `json:"batch_size"`
	// Points is the number of measured insertions (after warm-up).
	Points int `json:"points"`
	// WallNanos is the wall-clock time the measured insertions took.
	WallNanos int64 `json:"wall_nanos"`
	// PointsPerSec is the measured insert throughput.
	PointsPerSec float64 `json:"points_per_sec"`
	// AllocsPerPoint and BytesPerPoint are the heap allocation counts
	// of the measured phase, normalized per point.
	AllocsPerPoint float64 `json:"allocs_per_point"`
	BytesPerPoint  float64 `json:"bytes_per_point"`
	// ActiveCells, Clusters and CellsCreated fingerprint the clustering
	// output so callers can verify both modes computed the same thing.
	ActiveCells  int   `json:"active_cells"`
	Clusters     int   `json:"clusters"`
	CellsCreated int64 `json:"cells_created"`
}

// ThroughputReport is the JSON-serializable outcome of the experiment.
type ThroughputReport struct {
	// Schema versions the artifact layout for cross-revision tooling.
	Schema string `json:"schema"`
	// Points is the measured stream length, Seed the generator seed.
	Points int   `json:"points"`
	Seed   int64 `json:"seed"`
	// PerPoint and Batch are the two measured modes.
	PerPoint ThroughputModeResult `json:"per_point"`
	Batch    ThroughputModeResult `json:"batch"`
	// Speedup is Batch.PointsPerSec / PerPoint.PointsPerSec.
	Speedup float64 `json:"speedup"`
}

// ThroughputStream builds the bursty 2-D lattice workload: points
// drawn from a sites×sites lattice of weighted seed locations (as in
// the index experiment), but emitted in bursts of 2–10 consecutive
// points per site — the temporal locality of sessionized or
// sensor-driven traffic, where one user/sensor emits a run of events
// before the stream moves on. Bursts are what batched ingestion's
// same-cell run coalescing exploits; 2% uniform background noise
// exercises the reservoir path.
func ThroughputStream(n int, seed int64, rate float64) []stream.Point {
	const spacing = 4.0
	rng := rand.New(rand.NewSource(seed))
	nsites := indexBenchSites * indexBenchSites
	sites := make([][2]float64, 0, nsites)
	for i := 0; i < indexBenchSites; i++ {
		for j := 0; j < indexBenchSites; j++ {
			sites = append(sites, [2]float64{float64(i) * spacing, float64(j) * spacing})
		}
	}
	cum := make([]float64, nsites)
	total := 0.0
	for i := range cum {
		total += 2 + 8*rng.Float64()
		cum[i] = total
	}
	pickSite := func() int {
		x := rng.Float64() * total
		lo, hi := 0, nsites-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cum[mid] < x {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo
	}
	span := float64(indexBenchSites) * spacing
	pts := make([]stream.Point, 0, n)
	emit := func(vec []float64) {
		pts = append(pts, stream.Point{
			ID:     int64(len(pts)),
			Vector: vec,
			Time:   float64(len(pts)) / rate,
			Label:  stream.NoLabel,
		})
	}
	for len(pts) < n {
		if rng.Float64() < 0.02 {
			emit([]float64{rng.Float64()*span*1.5 - span/4, rng.Float64()*span*1.5 - span/4})
			continue
		}
		s := sites[pickSite()]
		burst := 2 + rng.Intn(9)
		for b := 0; b < burst && len(pts) < n; b++ {
			emit([]float64{s[0] + rng.NormFloat64()*0.25, s[1] + rng.NormFloat64()*0.25})
		}
	}
	return pts
}

// ThroughputConfig parameterizes EDMStream for the throughput
// workload: the index experiment's configuration (≈1600 simultaneously
// active cells) on the grid index, with automatic evolution checks
// disabled — the experiment isolates the ingest path; the cost of a
// cluster-update request is what the Fig. 9 experiment measures.
// Maintenance sweeps still run on their regular schedule.
func ThroughputConfig(rate float64) core.Config {
	cfg := indexBenchConfig(rate, core.IndexGrid)
	cfg.EvolutionInterval = -1
	return cfg
}

// RunThroughput measures per-point and batched ingestion over the same
// bursty lattice stream. s.Points is the measured stream length; a
// fixed warm-up (ten sweeps of the lattice, fed per-point in both
// runs) precedes measurement so both modes operate at full cell
// population. The two runs' clustering fingerprints must agree — a
// built-in check of the batch/sequential equivalence guarantee — or an
// error is returned.
func RunThroughput(s Scale) (ThroughputReport, error) {
	warmup := 10 * indexBenchSites * indexBenchSites
	pts := ThroughputStream(warmup+s.Points, s.Seed, s.Rate)

	measure := func(batchSize int) (ThroughputModeResult, error) {
		edm, err := core.New(ThroughputConfig(s.Rate))
		if err != nil {
			return ThroughputModeResult{}, fmt.Errorf("bench: building EDMStream: %w", err)
		}
		for i := 0; i < warmup; i++ {
			if err := edm.Insert(pts[i]); err != nil {
				return ThroughputModeResult{}, fmt.Errorf("bench: warm-up insert %d: %w", i, err)
			}
		}
		measured := pts[warmup:]
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		if batchSize <= 1 {
			for i := range measured {
				if err := edm.Insert(measured[i]); err != nil {
					return ThroughputModeResult{}, fmt.Errorf("bench: insert %d: %w", i, err)
				}
			}
		} else {
			for i := 0; i < len(measured); i += batchSize {
				end := i + batchSize
				if end > len(measured) {
					end = len(measured)
				}
				if err := edm.InsertBatch(measured[i:end]); err != nil {
					return ThroughputModeResult{}, fmt.Errorf("bench: batch %d:%d: %w", i, end, err)
				}
			}
		}
		wall := time.Since(t0)
		runtime.ReadMemStats(&after)

		snap := edm.Snapshot()
		st := edm.Stats()
		mode := "per-point"
		if batchSize > 1 {
			mode = "batch"
		}
		r := ThroughputModeResult{
			Mode:         mode,
			BatchSize:    batchSize,
			Points:       len(measured),
			WallNanos:    wall.Nanoseconds(),
			ActiveCells:  st.ActiveCells,
			Clusters:     snap.NumClusters(),
			CellsCreated: st.CellsCreated,
		}
		if wall > 0 {
			r.PointsPerSec = float64(len(measured)) / wall.Seconds()
		}
		if len(measured) > 0 {
			r.AllocsPerPoint = float64(after.Mallocs-before.Mallocs) / float64(len(measured))
			r.BytesPerPoint = float64(after.TotalAlloc-before.TotalAlloc) / float64(len(measured))
		}
		return r, nil
	}

	perPoint, err := measure(1)
	if err != nil {
		return ThroughputReport{}, err
	}
	batch, err := measure(ThroughputBatchSize)
	if err != nil {
		return ThroughputReport{}, err
	}
	if perPoint.Clusters != batch.Clusters || perPoint.CellsCreated != batch.CellsCreated ||
		perPoint.ActiveCells != batch.ActiveCells {
		return ThroughputReport{}, fmt.Errorf(
			"bench: batch and per-point ingestion diverged: per-point {clusters %d cells %d active %d}, batch {clusters %d cells %d active %d}",
			perPoint.Clusters, perPoint.CellsCreated, perPoint.ActiveCells,
			batch.Clusters, batch.CellsCreated, batch.ActiveCells)
	}
	rep := ThroughputReport{
		Schema:   "edmstream-throughput/v1",
		Points:   s.Points,
		Seed:     s.Seed,
		PerPoint: perPoint,
		Batch:    batch,
	}
	if perPoint.PointsPerSec > 0 {
		rep.Speedup = batch.PointsPerSec / perPoint.PointsPerSec
	}
	return rep, nil
}

// WriteThroughputJSON writes the report to path as indented JSON (the
// BENCH_throughput.json artifact).
func WriteThroughputJSON(path string, rep ThroughputReport) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: encoding throughput report: %w", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("bench: writing throughput artifact: %w", err)
	}
	return nil
}
