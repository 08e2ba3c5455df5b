// Command perfbench is the repository's benchmark. It runs one named
// workload against the real internal/server and edmstream stack,
// checks the run's outputs, and prints the end-to-end metrics (or,
// with --trace 1, the per-layer metrics) as the last line of standard
// output:
//
//	perfbench --workload ingest-durable --seed 1 --seconds 30 --trace 0
//
// Run it through run.sh, which builds it first. See README.md.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"
)

// workload is one named set of inputs the benchmark runs; why each
// exists is in BENCHMARK.json and README.md.
type workload struct {
	name string
	// run measures untraced for about seconds, adding to tl.
	run func(seed int64, seconds float64, tl *tally) error
	// trace makes the traced pass after an untraced one, adding
	// span-derived layer metrics (and its own end-to-end samples) to tl.
	trace func(seed int64, seconds float64, tl *tally) error
}

var workloads = []workload{
	{
		name: "ingest-durable",
		run: func(seed int64, seconds float64, tl *tally) error {
			return runIngestDurable(seed, seconds, ingestFull, tl, false)
		},
		trace: func(seed int64, seconds float64, tl *tally) error {
			return runIngestDurable(seed, seconds, ingestFull, tl, true)
		},
	},
	{
		name: "serve-mixed",
		run: func(seed int64, seconds float64, tl *tally) error {
			return runServeMixed(seed, seconds, serveFull, tl, false)
		},
		trace: func(seed int64, seconds float64, tl *tally) error {
			return runServeMixed(seed, seconds, serveFull, tl, true)
		},
	},
	{
		name: "engine-drift",
		run: func(seed int64, seconds float64, tl *tally) error {
			return runEngineDrift(seed, seconds, engineFull, 5, tl)
		},
		trace: func(seed int64, _ float64, tl *tally) error {
			return traceEngineDrift(seed, engineFull, tl)
		},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// untracedClient are the client-layer metrics taken from the untraced
// pass: what the load generator saw without tracing.
var untracedClient = map[string]bool{
	"client.recovery_ms": true, "client.ingest_pts_per_s": true,
	"client.ingest_ack_p99_ms": true, "client.assign_p99_ms": true,
	"client.snapshot_p99_ms": true,
}

// spanLayer reports whether a per-layer metric comes from spans, and
// so from the traced pass; all others come from the program's own
// counters, read in the untraced pass.
func spanLayer(name string) bool {
	for _, p := range []string{"client.", "http.", "trace.", "core.insert_batch", "core.snapshot_p50_us", "server.ingest_precommit", "core.checkpoint_restore_fail"} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "sut" {
		if err := sutMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench sut:", err)
			os.Exit(1)
		}
		return
	}
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	name := fs.String("workload", "", "workload to run: ingest-durable, serve-mixed or engine-drift")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 30, "how long the run measures")
	trace := fs.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	_ = fs.Parse(os.Args[1:]) // ExitOnError
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad --seconds/--trace\n", *name)
		os.Exit(2)
	}
	if err := run(os.Stdout, w, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run measures one workload and prints the report and the result
// line. A failing correctness gate prints a result with no metrics and
// returns the error.
func run(out io.Writer, w workload, seed int64, seconds float64, traced bool) error {
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		return fmt.Errorf("creating the work directory: %w", err)
	}
	defer os.Remove(workRoot) // only if the run left it empty
	prov := newProvenance(w, seed, seconds, traced)
	fmt.Fprintf(out, "# perfbench %s seed %d, %gs, trace %v\n", w.name, seed, seconds, traced)
	fmt.Fprintf(out, "# provenance %s\n", prov.json())

	tl := newTally()
	begin := time.Now()
	err := w.run(seed, seconds, tl)
	var e2e map[string]float64
	var lines []string
	if err == nil {
		e2e, lines, err = tl.endToEnd()
	}
	if err != nil {
		_ = writeResult(out, resultLine{Attempted: max(tl.attempted, 1), Failed: tl.failed + 1})
		return err
	}
	if len(tl.recovery) > 0 {
		tl.layers["client.recovery_ms"] = median(tl.recovery) * 1e3
		lines = append(lines, fmt.Sprintf("recovery: median %.4f ms of %d", median(tl.recovery)*1e3, len(tl.recovery)))
	}
	for _, l := range append(tl.notes, lines...) {
		fmt.Fprintf(out, "# %s\n", l)
	}
	res := resultLine{Correct: true, Attempted: tl.attempted, Failed: tl.failed}
	if !traced {
		fmt.Fprintf(out, "# end-to-end metrics (%.1fs wall)\n", time.Since(begin).Seconds())
		res.Metrics = printTable(out, endToEnd, e2e)
		return writeResult(out, res)
	}

	ttl := newTally()
	if err := w.trace(seed, seconds, ttl); err != nil {
		_ = writeResult(out, resultLine{Attempted: max(tl.attempted, 1), Failed: tl.failed + 1})
		return fmt.Errorf("traced pass: %w", err)
	}
	ttl.layers["client.sent"] = float64(ttl.attempted)
	ttl.layers["client.failed"] = float64(ttl.failed)
	for _, l := range ttl.notes {
		fmt.Fprintf(out, "# %s\n", l)
	}
	layers := map[string]float64{}
	for _, d := range perLayer {
		if spanLayer(d.name) && !untracedClient[d.name] {
			layers[d.name] = ttl.layers[d.name]
		} else {
			layers[d.name] = tl.layers[d.name]
		}
	}
	// Tracing overhead: the traced pass's medians against the untraced
	// pass's, as a share of the untraced.
	for _, o := range []struct {
		name   string
		t, ref *timings
	}{
		{"trace.overhead_ingest_ack_p50", ttl.pooled(ingestOf), tl.pooled(ingestOf)},
		{"trace.overhead_assign_p50", ttl.pooled(assignOf), tl.pooled(assignOf)},
	} {
		tv, err1 := o.t.quantile(0.5)
		rv, err2 := o.ref.quantile(0.5)
		if err1 == nil && err2 == nil && rv > 0 {
			layers[o.name] = tv/rv - 1
			fmt.Fprintf(out, "# %s: traced p50 %.4f ms (%d samples) vs untraced %.4f ms (%d samples)\n",
				o.name, tv, o.t.n(), rv, o.ref.n())
		}
	}
	fmt.Fprintf(out, "# untraced pass end-to-end metrics\n")
	printTable(out, endToEnd, e2e)
	fmt.Fprintf(out, "# per-layer metrics (%.1fs wall)\n", time.Since(begin).Seconds())
	res.Attempted += ttl.attempted
	res.Failed += ttl.failed
	res.Metrics = printTable(out, perLayer, layers)
	return writeResult(out, res)
}
