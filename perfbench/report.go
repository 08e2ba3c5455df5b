package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit. The two tables
// below are the benchmark's contract; BENCHMARK.json lists the same
// names and units (a test keeps them in step).
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees. Every workload
// measures every one of them; see README.md for what each means on
// each workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"heap_live_mb", "MiB"},
	{"ok_ratio", "ratio"},
	{"ingest_ack_p50_ms", "ms"},
	{"assign_p50_ms", "ms"},
	{"snapshot_p50_ms", "ms"},
	{"purity", "ratio"},
}

// perLayer are the traced run's metrics, named layer.metric after the
// module they measure. A workload that does not run a layer reports 0
// for it.
var perLayer = []metricDef{
	{"client.sent", "count"},
	{"client.failed", "count"},
	{"client.late_p99_ms", "ms"},
	{"client.transport_ingest_p50_ms", "ms"},
	{"client.transport_assign_p50_ms", "ms"},
	{"client.recovery_ms", "ms"},
	{"client.ingest_pts_per_s", "pts/s"},
	{"client.ingest_ack_p99_ms", "ms"},
	{"client.assign_p99_ms", "ms"},
	{"client.snapshot_p99_ms", "ms"},
	{"http.ingest_p50_ms", "ms"},
	{"http.ingest_p99_ms", "ms"},
	{"http.assign_p50_ms", "ms"},
	{"http.assign_p99_ms", "ms"},
	{"http.snapshot_p50_ms", "ms"},
	{"server.coalescer_wait_mean_ms", "ms"},
	{"server.coalescer_flush_mean_ms", "ms"},
	{"server.writer_busy_share", "ratio"},
	{"server.batch_points_mean", "count"},
	{"server.batch_requests_mean", "count"},
	{"server.ingest_precommit_us_per_pt", "us"},
	{"server.shed_total", "count"},
	{"wal.fsyncs", "count"},
	{"wal.fsync_mean_ms", "ms"},
	{"wal.bytes_per_pt", "B"},
	{"wal.checkpoints", "count"},
	{"wal.checkpoint_mean_ms", "ms"},
	{"wal.recovery_ms", "ms"},
	{"wal.replayed_records", "count"},
	{"core.insert_batch_us_per_pt", "us"},
	{"core.insert_batch_serial_us_per_pt", "us"},
	{"core.snapshot_p50_us", "us"},
	{"core.dep_candidates_per_pt", "count"},
	{"core.filtered_share", "ratio"},
	{"core.speculation_hit_ratio", "ratio"},
	{"core.cells_created", "count"},
	{"core.live_cells_end", "count"},
	{"core.heap_bytes_per_live_cell", "B"},
	{"core.checkpoint_bytes", "B"},
	{"core.write_checkpoint_ms", "ms"},
	{"core.restore_checkpoint_ms", "ms"},
	{"core.checkpoint_restore_fail_share", "ratio"},
	{"index.seed_candidates_per_pt", "count"},
	{"index.assign_us_per_pt", "us"},
	{"runtime.allocs_per_pt", "count"},
	{"runtime.alloc_bytes_per_pt", "B"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_total_ms", "ms"},
	{"runtime.cpu_ms_per_kpt", "ms"},
	{"trace.spans", "count"},
	{"trace.overhead_ingest_ack_p50", "ratio"},
	{"trace.overhead_assign_p50", "ratio"},
}

// episode holds the timings and ingest volume of one episode (or, on
// serve-mixed, one window of the schedule).
type episode struct {
	ingest, assign, snapshot timings
	points                   int64
	wall                     time.Duration
}

// tally accumulates one run's measurements across its episodes.
type tally struct {
	attempted, failed int64

	setup, heapMB, purity []float64
	// recovery holds restart (or checkpoint restore) times in seconds;
	// it feeds the per-layer client.recovery_ms.
	recovery []float64

	eps []*episode

	// layers holds the per-layer figures.
	layers map[string]float64
	// notes are extra report lines (sample counts, gate results).
	notes []string
}

func newTally() *tally { return &tally{layers: map[string]float64{}} }

func (t *tally) newEpisode() *episode {
	e := &episode{}
	t.eps = append(t.eps, e)
	return e
}

func (t *tally) notef(format string, args ...any) {
	t.notes = append(t.notes, fmt.Sprintf(format, args...))
}

// call counts one attempted operation and whether it failed.
func (t *tally) call(ok bool) {
	t.attempted++
	if !ok {
		t.failed++
	}
}

// pooled merges one kind of timing over every episode.
func (t *tally) pooled(kind func(*episode) *timings) *timings {
	all := &timings{}
	for _, e := range t.eps {
		all.merge(kind(e))
	}
	return all
}

func ingestOf(e *episode) *timings   { return &e.ingest }
func assignOf(e *episode) *timings   { return &e.assign }
func snapshotOf(e *episode) *timings { return &e.snapshot }

// endToEnd computes the end-to-end metrics, and the client layer's
// rate and p99s. Rates and medians are the median over episodes of
// each episode's figure, which keeps a burst
// of interference on the host from moving a whole run; a median needs
// the samples the ten-beyond rule requires in every episode.
func (t *tally) endToEnd() (map[string]float64, []string, error) {
	if t.attempted == 0 {
		return nil, nil, fmt.Errorf("no operation was attempted")
	}
	if len(t.setup) == 0 || len(t.heapMB) == 0 || len(t.purity) == 0 || len(t.eps) == 0 {
		return nil, nil, fmt.Errorf("a run phase recorded nothing (setup %d, heap %d, purity %d, episodes %d)",
			len(t.setup), len(t.heapMB), len(t.purity), len(t.eps))
	}
	var rates []float64
	var points int64
	for _, e := range t.eps {
		if e.wall <= 0 {
			return nil, nil, fmt.Errorf("an episode recorded no ingest time")
		}
		rates = append(rates, float64(e.points)/e.wall.Seconds())
		points += e.points
	}
	m := map[string]float64{
		"setup_s":      median(t.setup),
		"heap_live_mb": median(t.heapMB),
		"ok_ratio":     float64(t.attempted-t.failed) / float64(t.attempted),
		"purity":       median(t.purity),
	}
	t.layers["client.ingest_pts_per_s"] = median(rates)
	lines := []string{
		fmt.Sprintf("setup_s: median of %d set-ups", len(t.setup)),
		fmt.Sprintf("heap_live_mb: median of %d readings", len(t.heapMB)),
		fmt.Sprintf("ok_ratio: %d of %d attempted operations succeeded", t.attempted-t.failed, t.attempted),
		fmt.Sprintf("client.ingest_pts_per_s: median of %d episodes (%s), %d points in all", len(t.eps), compact(rates), points),
		fmt.Sprintf("purity: median of %d", len(t.purity)),
	}
	for _, d := range []struct {
		name string
		kind func(*episode) *timings
	}{{"ingest_ack", ingestOf}, {"assign", assignOf}, {"snapshot", snapshotOf}} {
		var p50s []float64
		for i, e := range t.eps {
			v, err := d.kind(e).quantile(0.5)
			if err != nil {
				return nil, nil, fmt.Errorf("%s_p50_ms, episode %d: %w", d.name, i, err)
			}
			p50s = append(p50s, v)
		}
		m[d.name+"_p50_ms"] = median(p50s)
		all := t.pooled(d.kind)
		line := fmt.Sprintf("%s_p50_ms: median of %d episode medians (%s), %d samples in all", d.name, len(p50s), compact(p50s), all.n())
		if q, v, ok := all.tail(); ok {
			line += fmt.Sprintf("; pooled p%g %.4f ms (%d beyond)", q*100, v, beyond(all.n(), q))
		}
		lines = append(lines, line)
		if v, err := all.quantile(0.99); err == nil {
			t.layers["client."+d.name+"_p99_ms"] = v
		}
	}
	return m, lines, nil
}

// compact renders values to three significant digits.
func compact(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = strconv.FormatFloat(x, 'g', 3, 64)
	}
	return strings.Join(parts, " ")
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// printTable writes name = value unit lines in table order.
func printTable(w io.Writer, defs []metricDef, vals map[string]float64) map[string]metricOut {
	out := make(map[string]metricOut, len(defs))
	for _, d := range defs {
		v := vals[d.name]
		out[d.name] = metricOut{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "  %-38s %14.6g %s\n", d.name, v, d.unit)
	}
	return out
}

func writeResult(w io.Writer, r resultLine) error {
	if r.Metrics == nil {
		r.Metrics = map[string]metricOut{}
	}
	raw, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", raw)
	return err
}
