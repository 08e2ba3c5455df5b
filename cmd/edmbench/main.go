// Command edmbench regenerates the tables and figures of the paper's
// evaluation section. Each experiment ID corresponds to one table or
// figure (see DESIGN.md for the full index):
//
//	edmbench [flags] <experiment>
//
//	experiments: table2, fig6, fig7, fig8, fig9, fig10, fig11, fig12,
//	             fig13, fig14, fig15 (alias table4), fig16, fig17,
//	             ablation, index, throughput, serve, e2e, wal,
//	             overload, dr, tenants, all
//
// Flags control the workload scale; the defaults are large enough to
// reproduce the paper's curve shapes while finishing in minutes on a
// laptop.
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/densitymountain/edmstream/internal/bench"
)

// The *JSON variables are the artifact paths the experiments write
// (set by the -json, -servejson, -e2ejson, ... flags).
var (
	throughputJSON string
	serveJSON      string
	e2eJSON        string
	walJSON        string
	overloadJSON   string
	drJSON         string
	tenancyJSON    string
)

func main() {
	// The wal kill-and-restart drill and the overload drill re-exec
	// this binary as their durable serving children; divert before
	// flag parsing.
	if os.Getenv("EDMBENCH_WAL_CHILD") == "1" {
		if err := bench.RunWALChild(); err != nil {
			fmt.Fprintf(os.Stderr, "edmbench: wal child: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if os.Getenv("EDMBENCH_OVERLOAD_CHILD") == "1" {
		if err := bench.RunOverloadChild(); err != nil {
			fmt.Fprintf(os.Stderr, "edmbench: overload child: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if os.Getenv("EDMBENCH_TENANTS_CHILD") == "1" {
		if err := bench.RunTenantsChild(); err != nil {
			fmt.Fprintf(os.Stderr, "edmbench: tenants child: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if os.Getenv("EDMBENCH_DR_CHILD") == "1" {
		if err := bench.RunDRChild(); err != nil {
			fmt.Fprintf(os.Stderr, "edmbench: dr child: %v\n", err)
			os.Exit(1)
		}
		return
	}
	points := flag.Int("points", 20000, "stream length per dataset")
	seed := flag.Int64("seed", 1, "random seed for the synthetic generators")
	rate := flag.Float64("rate", 1000, "arrival rate in points per second")
	flag.StringVar(&throughputJSON, "json", "BENCH_throughput.json",
		"path of the machine-readable artifact the throughput experiment writes (empty disables it)")
	flag.StringVar(&serveJSON, "servejson", "BENCH_serve.json",
		"path of the machine-readable artifact the serve experiment writes (empty disables it)")
	flag.StringVar(&e2eJSON, "e2ejson", "BENCH_e2e.json",
		"path of the machine-readable artifact the e2e experiment writes (empty disables it)")
	flag.StringVar(&walJSON, "waljson", "BENCH_wal.json",
		"path of the machine-readable artifact the wal experiment writes (empty disables it)")
	flag.StringVar(&overloadJSON, "overloadjson", "BENCH_overload.json",
		"path of the machine-readable artifact the overload drill writes (empty disables it)")
	flag.StringVar(&drJSON, "drjson", "BENCH_recovery.json",
		"path of the machine-readable artifact the disaster-recovery drill writes (empty disables it)")
	flag.StringVar(&tenancyJSON, "tenancyjson", "BENCH_tenancy.json",
		"path of the machine-readable artifact the tenants drill writes (empty disables it)")
	flag.Usage = usage
	flag.Parse()

	if flag.NArg() != 1 {
		usage()
		os.Exit(2)
	}
	scale := bench.Scale{Points: *points, Seed: *seed, Rate: *rate}
	if err := run(flag.Arg(0), scale); err != nil {
		fmt.Fprintf(os.Stderr, "edmbench: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: edmbench [flags] <experiment>

experiments:
  table2    dataset inventory (Table 2)
  fig6      SDS snapshots over time (Fig. 6)
  fig7      cluster evolution activities on SDS (Fig. 7)
  fig8      news recommendation use case (Fig. 8 / Table 3)
  fig9      response time vs baselines (Fig. 9 a-c)
  fig10     throughput vs baselines (Fig. 10 a-c)
  fig11     effect of the filtering strategies (Fig. 11 a-c)
  fig12     response time vs dimensionality (Fig. 12)
  fig13     cluster quality (CMM) vs baselines (Fig. 13 a-c)
  fig14     cluster quality vs stream rate (Fig. 14)
  fig15     dynamic vs static tau (Fig. 15 / Table 4); alias: table4
  fig16     outlier reservoir size vs bound (Fig. 16 a-b)
  fig17     effect of the cluster-cell radius (Fig. 17 a-b)
  ablation  extra design-choice studies
  index     nearest-seed index: grid vs linear insert throughput
  throughput  ingestion: per-point Insert vs batched InsertBatch
              (writes the machine-readable BENCH_throughput.json artifact)
  serve     serving layer: incremental vs full snapshot refresh, and
            concurrent Assign queries (1 writer + 4 readers; writes the
            machine-readable BENCH_serve.json artifact)
  e2e       end-to-end serving: boots edmserved on loopback and drives
            it with concurrent HTTP writers + readers; reports ingest
            points/sec, assign qps, per-endpoint latency quantiles and
            the coalescer batch-size distribution (writes the
            machine-readable BENCH_e2e.json artifact)
  wal       durability: ingest throughput with the WAL fsync on vs off,
            then a kill-and-restart drill — SIGKILL a durable serving
            child mid-traffic, restart it on the same WAL directory and
            require byte-identical recovery of every acknowledged point
            (writes the machine-readable BENCH_wal.json artifact)
  overload  resilience: drive a durable serving child at 4x its (fault-
            injected slow-disk) capacity while the disk dies and heals;
            require clean 429/503 shedding with Retry-After, automatic
            degraded-mode entry and recovery, and exact survival of
            every acknowledged point across a drain and restart (writes
            the machine-readable BENCH_overload.json artifact)
  tenants   multi-tenant serving: 32 named streams over the bounded
            writer pool under a memory budget forcing eviction/revival
            churn, SIGKILLed mid-traffic and restarted; every stream's
            recovered clustering must be byte-identical to a solo
            reference replay of its acknowledged batches, and the
            aggregate ingest rate must beat the single-stream baseline
            on multi-core machines (writes the machine-readable
            BENCH_tenancy.json artifact)
  dr        disaster recovery: a durable serving child ships compressed
            checkpoints and sealed WAL segments to a fault-injected
            object store; a total remote outage must not fail a single
            ingest ack (only report archive-lagging), then the child is
            SIGKILLed, its data directory destroyed, and a fresh child
            restores from the flaky remote inside the recovery budget
            with a byte-identical clustering (writes the machine-
            readable BENCH_recovery.json artifact)
  all       run every experiment

flags:
`)
	flag.PrintDefaults()
}

func run(id string, s bench.Scale) error {
	switch id {
	case "table2":
		rows, err := bench.RunTable2(s)
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatTable2(rows))
	case "fig6":
		snaps, err := bench.RunFig6(s)
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatFig6(snaps))
	case "fig7":
		events, scripted, err := bench.RunFig7(s)
		if err != nil {
			return err
		}
		fmt.Println("Fig. 7: cluster evolution activities (SDS)")
		fmt.Println("scripted ground-truth schedule (fractions of the stream):")
		for _, e := range scripted {
			fmt.Printf("  %-10s at %.0f%% of the stream\n", e.Kind, e.Fraction*100)
		}
		fmt.Println("detected activities:")
		for _, e := range events {
			fmt.Printf("  %s\n", e)
		}
	case "fig8":
		res, err := bench.RunFig8(s)
		if err != nil {
			return err
		}
		fmt.Println("Fig. 8 / Table 3: news-stream cluster evolution")
		fmt.Println("scripted topic schedule:")
		for _, e := range res.Scripted {
			fmt.Printf("  %-6s at %.0f%% of the stream: %v\n", e.Kind, e.Fraction*100, e.Topics)
		}
		fmt.Println("detected activities:")
		for _, e := range res.Events {
			fmt.Printf("  %s\n", e)
		}
		fmt.Println("final clusters (tags):")
		for _, c := range res.FinalClusters {
			fmt.Printf("  cluster %d (%d cells): %v\n", c.ID, c.Size, c.Tags)
		}
	case "fig9", "fig10", "fig13":
		computeCMM := id == "fig13"
		for _, name := range bench.ComparisonDatasets() {
			results, err := bench.RunComparison(name, s, computeCMM)
			if err != nil {
				return err
			}
			switch id {
			case "fig9":
				fmt.Print(bench.FormatComparisonResponseTime(name, results))
			case "fig10":
				fmt.Print(bench.FormatComparisonThroughput(name, results))
			case "fig13":
				fmt.Print(bench.FormatComparisonCMM(name, results))
			}
			fmt.Println()
		}
	case "fig11":
		for _, name := range bench.ComparisonDatasets() {
			results, err := bench.RunFig11(name, s)
			if err != nil {
				return err
			}
			fmt.Print(bench.FormatFig11(name, results))
			fmt.Println()
		}
	case "fig12":
		results, err := bench.RunFig12([]int{10, 30, 100, 300, 1000}, s)
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatFig12(results))
	case "fig14":
		results, err := bench.RunFig14(nil, s)
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatFig14(results))
	case "fig15", "table4":
		tc, err := bench.RunTable4(s)
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatTable4(tc))
	case "fig16":
		for _, name := range []string{"covertype", "pamap2"} {
			results, err := bench.RunFig16(name, nil, s)
			if err != nil {
				return err
			}
			fmt.Print(bench.FormatFig16(name, results))
			fmt.Println()
		}
	case "fig17":
		results, err := bench.RunFig17(s)
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatFig17(results))
	case "ablation":
		results, err := bench.RunAblation(s)
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatAblation(results))
	case "index":
		results, err := bench.RunIndexBench(s)
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatIndexBench(results))
	case "throughput":
		rep, err := bench.RunThroughput(s)
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatThroughput(rep))
		if throughputJSON != "" {
			if err := bench.WriteThroughputJSON(throughputJSON, rep); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", throughputJSON)
		}
	case "serve":
		rep, err := bench.RunServe(s)
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatServe(rep))
		if serveJSON != "" {
			if err := bench.WriteServeJSON(serveJSON, rep); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", serveJSON)
		}
	case "e2e":
		rep, err := bench.RunE2E(s)
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatE2E(rep))
		if e2eJSON != "" {
			if err := bench.WriteE2EJSON(e2eJSON, rep); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", e2eJSON)
		}
	case "wal":
		rep, err := bench.RunWAL(s)
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatWAL(rep))
		if walJSON != "" {
			if err := bench.WriteWALJSON(walJSON, rep); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", walJSON)
		}
	case "overload":
		rep, err := bench.RunOverload(s)
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatOverload(rep))
		if overloadJSON != "" {
			if err := bench.WriteOverloadJSON(overloadJSON, rep); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", overloadJSON)
		}
	case "dr":
		rep, err := bench.RunDR(s)
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatDR(rep))
		if drJSON != "" {
			if err := bench.WriteDRJSON(drJSON, rep); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", drJSON)
		}
	case "tenants":
		rep, err := bench.RunTenants(s)
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatTenants(rep))
		if tenancyJSON != "" {
			if err := bench.WriteTenantsJSON(tenancyJSON, rep); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", tenancyJSON)
		}
	case "all":
		ids := []string{"table2", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "ablation", "index", "throughput", "serve", "e2e", "wal", "overload", "dr", "tenants"}
		for _, sub := range ids {
			fmt.Printf("===== %s =====\n", sub)
			if err := run(sub, s); err != nil {
				return fmt.Errorf("%s: %w", sub, err)
			}
			fmt.Println()
		}
	default:
		return fmt.Errorf("unknown experiment %q (run edmbench -h for the list)", id)
	}
	return nil
}
