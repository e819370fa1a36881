// tgopt-bench regenerates the paper's tables and figures. One
// subcommand per artifact:
//
//	tgopt-bench table1                     # batch duplication per layer
//	tgopt-bench fig3  [-d snap-msg]        # reuse vs recompute over time
//	tgopt-bench fig4  [-d snap-msg]        # Δt distribution
//	tgopt-bench fig5  [--device cpu|gpu]   # end-to-end runtimes + speedups
//	tgopt-bench fig6  [--device cpu|gpu]   # accumulative ablation
//	tgopt-bench fig7                       # cache hit-rate evolution
//	tgopt-bench table3 [--device cpu|gpu]  # operation breakdown
//	tgopt-bench table4                     # cache-limit sweep
//	tgopt-bench table5                     # cache placement transfers
//	tgopt-bench table2                     # dataset statistics
//	tgopt-bench sampling                   # most-recent vs uniform probe
//	tgopt-bench train-dedup                # §7 training-time dedup
//	tgopt-bench warmstart                  # cache persistence warm start
//	tgopt-bench batchsweep                 # batch-size sensitivity
//	tgopt-bench perf [-o BENCH.json]       # kernel + end-to-end perf report
//	tgopt-bench cachesweep [-o BENCH.json] # memo-cache hit rate vs byte budget,
//	                                       # FIFO vs TinyLFU admission
//	tgopt-bench quant [-o BENCH.json]      # int8 vs float32: kernel MB/s, e2e
//	                                       # ns/edge and hit rate at equal budgets
//	tgopt-bench deepsweep [-o BENCH.json]  # 3-layer serving under live ingest:
//	                                       # transitive invalidation vs deep clear-all
//	tgopt-bench swapsweep [-o BENCH.json]  # online-learning hot-swap under load:
//	                                       # cache re-warm cost, swap pause, bitwise
//	                                       # post-swap spot checks
//	tgopt-bench quantacc [-max-ap-delta d] # int8 accuracy harness: AP/accuracy
//	                                       # delta + max-abs embedding delta
//	tgopt-bench all                        # everything above, CPU + GPU
//
// Figure subcommands accept --plot <dir> (SVG output) and --csv <dir>
// (machine-readable results). The synthetic workloads are scaled-down
// analogues of the paper's Table 2 datasets; --scale controls the
// factor (see EXPERIMENTS.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"tgopt/internal/dataset"
	"tgopt/internal/experiments"
	"tgopt/internal/perfbench"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	scale := fs.Float64("scale", 0.004, "dataset scale factor relative to the paper's Table 2")
	batch := fs.Int("batch", 200, "inference batch size (paper: 200)")
	dim := fs.Int("dim", 32, "node/edge/time feature width")
	heads := fs.Int("heads", 2, "attention heads")
	layers := fs.Int("layers", 2, "TGAT layers")
	k := fs.Int("k", 10, "sampled most-recent neighbors")
	runs := fs.Int("runs", 3, "repetitions for runtime experiments (paper: 10)")
	deviceFlag := fs.String("device", "cpu", "cpu or gpu (simulated accelerator)")
	ds := fs.String("d", "", "restrict to one dataset (default: experiment-appropriate set)")
	cacheLimit := fs.Int("cache-limit", 0, "cache item limit (0 = paper's 2M scaled)")
	window := fs.Int("time-window", 10000, "precomputed time-encoding window")
	seed := fs.Uint64("seed", 1, "deterministic seed")
	plotDir := fs.String("plot", "", "also write figure SVGs into this directory")
	csvDir := fs.String("csv", "", "also write machine-readable result CSVs into this directory")
	out := fs.String("o", "", "report subcommands: write the JSON report here instead of stdout")
	maxAPDelta := fs.Float64("max-ap-delta", 0, "quantacc: exit non-zero if |AP(float32) - AP(int8)| exceeds this (0 disables the gate)")
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}

	setup := experiments.Setup{
		Scale:      *scale,
		BatchSize:  *batch,
		NodeDim:    *dim,
		Heads:      *heads,
		Layers:     *layers,
		K:          *k,
		Runs:       *runs,
		CacheLimit: *cacheLimit,
		TimeWindow: *window,
		Seed:       *seed,
	}
	kind := experiments.CPU
	switch *deviceFlag {
	case "cpu":
	case "gpu":
		kind = experiments.GPU
	default:
		fatal(fmt.Errorf("unknown --device %q (want cpu or gpu)", *deviceFlag))
	}

	all := dataset.Names()
	selected := all
	if *ds != "" {
		selected = []string{*ds}
	}
	// The paper's in-depth analyses focus on these two datasets.
	focus := []string{"jodie-lastfm", "snap-msg"}
	if *ds != "" {
		focus = []string{*ds}
	}

	w := os.Stdout
	var err error
	switch cmd {
	case "table1":
		var rows []experiments.Table1Row
		rows, err = experiments.Table1(w, setup, selected)
		if err == nil {
			h, rs := experiments.Table1CSV(rows)
			err = maybeCSV(*csvDir, "table1", h, rs)
		}
	case "fig3":
		name := one(focus, "snap-msg", *ds)
		var points []experiments.Figure3Point
		points, err = experiments.Figure3(w, setup, name, 20)
		if err == nil {
			err = maybePlot(*plotDir, "fig3-"+name, experiments.Figure3SVG(name, points))
		}
		if err == nil {
			h, rs := experiments.Figure3CSV(points)
			err = maybeCSV(*csvDir, "fig3-"+name, h, rs)
		}
	case "fig4":
		name := one(focus, "snap-msg", *ds)
		var buckets []experiments.Figure4Bucket
		buckets, err = experiments.Figure4(w, setup, name, 14)
		if err == nil {
			err = maybePlot(*plotDir, "fig4-"+name, experiments.Figure4SVG(name, buckets))
		}
		if err == nil {
			h, rs := experiments.Figure4CSV(buckets)
			err = maybeCSV(*csvDir, "fig4-"+name, h, rs)
		}
	case "fig5":
		var rows []experiments.Figure5Row
		rows, err = experiments.Figure5(w, setup, selected, kind)
		if err == nil {
			err = maybePlot(*plotDir, "fig5-"+kind.String(), experiments.Figure5SVG(rows))
		}
		if err == nil {
			h, rs := experiments.Figure5CSV(rows)
			err = maybeCSV(*csvDir, "fig5-"+kind.String(), h, rs)
		}
	case "fig6":
		var rows []experiments.Figure6Row
		rows, err = experiments.Figure6(w, setup, focus, kind)
		if err == nil {
			err = maybePlot(*plotDir, "fig6-"+kind.String(), experiments.Figure6SVG(rows))
		}
		if err == nil {
			h, rs := experiments.Figure6CSV(rows)
			err = maybeCSV(*csvDir, "fig6-"+kind.String(), h, rs)
		}
	case "fig7":
		var series []experiments.Figure7Series
		series, err = experiments.Figure7(w, setup, focus)
		if err == nil {
			err = maybePlot(*plotDir, "fig7", experiments.Figure7SVG(series))
		}
		if err == nil {
			h, rs := experiments.Figure7CSV(series)
			err = maybeCSV(*csvDir, "fig7", h, rs)
		}
	case "table3":
		_, err = experiments.Table3(w, setup, focus, kind)
	case "table4":
		var cells []experiments.Table4Cell
		cells, err = experiments.Table4(w, setup, focus, experiments.GPU)
		if err == nil {
			h, rs := experiments.Table4CSV(cells)
			err = maybeCSV(*csvDir, "table4", h, rs)
		}
	case "table5":
		var results []experiments.Table5Result
		results, err = experiments.Table5(w, setup, focus)
		if err == nil {
			h, rs := experiments.Table5CSV(results)
			err = maybeCSV(*csvDir, "table5", h, rs)
		}
	case "sampling":
		_, err = experiments.CompareSampling(w, setup, one(focus, "jodie-lastfm", *ds))
	case "table2":
		_, err = experiments.Table2(w, setup, selected)
	case "train-dedup":
		_, err = experiments.TrainDedup(w, setup, one(focus, "snap-msg", *ds), 1)
	case "warmstart":
		_, err = experiments.WarmStart(w, setup, one(focus, "jodie-lastfm", *ds), 5)
	case "batchsweep":
		_, err = experiments.BatchSweep(w, setup, one(focus, "jodie-lastfm", *ds),
			[]int{50, 100, 200, 400, 800})
	case "perf":
		err = runPerf(setup, one(focus, "snap-msg", *ds), *runs, *out)
	case "cachesweep":
		cfg := perfbench.DefaultCacheSweepConfig()
		cfg.Seed = *seed
		err = runCacheSweep(cfg, *out)
	case "deepsweep":
		cfg := perfbench.DefaultDeepSweepConfig()
		cfg.Seed = *seed
		cfg.Runs = *runs
		err = runDeepSweep(cfg, *out)
	case "swapsweep":
		cfg := perfbench.DefaultSwapSweepConfig()
		cfg.Seed = *seed
		cfg.Runs = *runs
		err = runSwapSweep(cfg, *out)
	case "quant":
		err = runQuant(setup, one(focus, "snap-msg", *ds), *runs, *out)
	case "quantacc":
		err = runQuantAcc(setup, one(focus, "snap-msg", *ds), *maxAPDelta, *out)
	case "all":
		err = runAll(setup, selected, focus, *plotDir, *csvDir)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fatal(err)
	}
}

// maybeCSV writes a result CSV into dir when requested.
func maybeCSV(dir, name string, header []string, rows [][]string) error {
	if dir == "" {
		return nil
	}
	path, err := experiments.WriteCSVFile(dir, name, header, rows)
	if err == nil {
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	}
	return err
}

// maybePlot writes svg into dir when plotting is requested.
func maybePlot(dir, name, svg string) error {
	if dir == "" {
		return nil
	}
	path, err := experiments.WriteSVG(dir, name, svg)
	if err == nil {
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	}
	return err
}

// one picks the explicit dataset if given, else the preferred default.
func one(focus []string, preferred, explicit string) string {
	if explicit != "" {
		return explicit
	}
	for _, f := range focus {
		if f == preferred {
			return f
		}
	}
	return focus[0]
}

func runAll(setup experiments.Setup, selected, focus []string, plotDir, csvDir string) error {
	w := os.Stdout
	// Figures 3 and 4 are distribution analyses, not timing runs; they
	// are cheap enough to run at a larger scale, which snap-msg (the
	// paper's subject and the smallest dataset) needs to develop its
	// redundancy structure.
	distSetup := setup
	if distSetup.Scale < 0.05 {
		distSetup.Scale = 0.05
	}
	steps := []func() error{
		func() error {
			rows, err := experiments.Table1(w, setup, selected)
			if err != nil {
				return err
			}
			h, rs := experiments.Table1CSV(rows)
			return maybeCSV(csvDir, "table1", h, rs)
		},
		func() error {
			points, err := experiments.Figure3(w, distSetup, "snap-msg", 20)
			if err != nil {
				return err
			}
			if err := maybePlot(plotDir, "fig3-snap-msg", experiments.Figure3SVG("snap-msg", points)); err != nil {
				return err
			}
			h, rs := experiments.Figure3CSV(points)
			return maybeCSV(csvDir, "fig3-snap-msg", h, rs)
		},
		func() error {
			buckets, err := experiments.Figure4(w, distSetup, "snap-msg", 14)
			if err != nil {
				return err
			}
			if err := maybePlot(plotDir, "fig4-snap-msg", experiments.Figure4SVG("snap-msg", buckets)); err != nil {
				return err
			}
			h, rs := experiments.Figure4CSV(buckets)
			return maybeCSV(csvDir, "fig4-snap-msg", h, rs)
		},
		func() error {
			rows, err := experiments.Figure5(w, setup, selected, experiments.CPU)
			if err != nil {
				return err
			}
			if err := maybePlot(plotDir, "fig5-cpu", experiments.Figure5SVG(rows)); err != nil {
				return err
			}
			h, rs := experiments.Figure5CSV(rows)
			return maybeCSV(csvDir, "fig5-cpu", h, rs)
		},
		func() error {
			rows, err := experiments.Figure5(w, setup, selected, experiments.GPU)
			if err != nil {
				return err
			}
			if err := maybePlot(plotDir, "fig5-gpu", experiments.Figure5SVG(rows)); err != nil {
				return err
			}
			h, rs := experiments.Figure5CSV(rows)
			return maybeCSV(csvDir, "fig5-gpu", h, rs)
		},
		func() error {
			rows, err := experiments.Figure6(w, setup, focus, experiments.CPU)
			if err != nil {
				return err
			}
			if err := maybePlot(plotDir, "fig6-cpu", experiments.Figure6SVG(rows)); err != nil {
				return err
			}
			h, rs := experiments.Figure6CSV(rows)
			return maybeCSV(csvDir, "fig6-cpu", h, rs)
		},
		func() error {
			rows, err := experiments.Figure6(w, setup, focus, experiments.GPU)
			if err != nil {
				return err
			}
			if err := maybePlot(plotDir, "fig6-gpu", experiments.Figure6SVG(rows)); err != nil {
				return err
			}
			h, rs := experiments.Figure6CSV(rows)
			return maybeCSV(csvDir, "fig6-gpu", h, rs)
		},
		func() error {
			series, err := experiments.Figure7(w, distSetup, focus)
			if err != nil {
				return err
			}
			if err := maybePlot(plotDir, "fig7", experiments.Figure7SVG(series)); err != nil {
				return err
			}
			h, rs := experiments.Figure7CSV(series)
			return maybeCSV(csvDir, "fig7", h, rs)
		},
		func() error { _, err := experiments.Table3(w, setup, focus, experiments.CPU); return err },
		func() error { _, err := experiments.Table3(w, setup, focus, experiments.GPU); return err },
		func() error {
			cells, err := experiments.Table4(w, setup, focus, experiments.GPU)
			if err != nil {
				return err
			}
			h, rs := experiments.Table4CSV(cells)
			return maybeCSV(csvDir, "table4", h, rs)
		},
		func() error {
			results, err := experiments.Table5(w, setup, focus)
			if err != nil {
				return err
			}
			h, rs := experiments.Table5CSV(results)
			return maybeCSV(csvDir, "table5", h, rs)
		},
		func() error { _, err := experiments.CompareSampling(w, setup, "jodie-lastfm"); return err },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}

// runPerf executes the committed performance suite (kernels, attention,
// end-to-end stream inference) and writes the JSON report to out, or
// stdout when out is empty. A one-line summary always goes to stderr so
// scripted runs stay observable.
func runPerf(setup experiments.Setup, name string, runs int, out string) error {
	rep, err := perfbench.Run(setup, name, runs)
	if err != nil {
		return err
	}
	if err := writeReport(rep, out); err != nil {
		return err
	}
	for _, r := range rep.Results {
		if r.NsPerEdge > 0 {
			fmt.Fprintf(os.Stderr, "perf: %s %.0f ns/edge (%d edges, %.0f allocs/pass)\n",
				r.Name, r.NsPerEdge, r.Edges, r.AllocsPerOp)
		}
	}
	return nil
}

// runCacheSweep executes the FIFO-vs-TinyLFU hit-rate sweep and writes
// the JSON report to out (stdout when empty), one summary line per
// budget on stderr.
func runCacheSweep(cfg perfbench.CacheSweepConfig, out string) error {
	rep, err := perfbench.RunCacheSweep(cfg)
	if err != nil {
		return err
	}
	if err := writeReport(rep, out); err != nil {
		return err
	}
	for _, p := range rep.Points {
		fmt.Fprintf(os.Stderr, "cachesweep: budget=%8d entries=%6d fifo=%.4f tinylfu=%.4f (%+.4f)\n",
			p.BudgetBytes, p.Entries, p.FIFOHitRate, p.TinyLFUHitRate, p.Improvement)
	}
	return nil
}

// runDeepSweep executes the deep-layer invalidation sweep (BENCH_5:
// 3-layer serving under live ingest, selective transitive invalidation
// vs the conservative deep clear) and writes the JSON report to out
// (stdout when empty), with a summary on stderr.
func runDeepSweep(cfg perfbench.DeepSweepConfig, out string) error {
	rep, err := perfbench.RunDeepSweep(cfg)
	if err != nil {
		return err
	}
	if err := writeReport(rep, out); err != nil {
		return err
	}
	for _, p := range rep.Points {
		fmt.Fprintf(os.Stderr,
			"deepsweep: rate=%4d/1000 (%d ingests, %d late) deep-hit sel=%.4f clr=%.4f (%+.4f) ns/edge sel=%.0f clr=%.0f (%.2fx)\n",
			p.RatePer1000, p.Ingests, p.LateEdges,
			p.Selective.DeepHitRate, p.ClearAll.DeepHitRate, p.HitRateGain,
			p.Selective.NsPerEdge, p.ClearAll.NsPerEdge, p.Speedup)
	}
	if !rep.AllPointsPass {
		return fmt.Errorf("deepsweep: acceptance failed — selective did not beat clear-all at every rate")
	}
	return nil
}

// runSwapSweep executes the hot-swap sweep (BENCH_6: cache re-warm
// cost and swap pause at several swap cadences, plus bitwise post-swap
// spot checks against fixed-params references) and writes the JSON
// report to out (stdout when empty), with a summary on stderr.
func runSwapSweep(cfg perfbench.SwapSweepConfig, out string) error {
	rep, err := perfbench.RunSwapSweep(cfg)
	if err != nil {
		return err
	}
	if err := writeReport(rep, out); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "swapsweep: baseline hit-rate %.4f, %.0f ns/query\n",
		rep.BaselineHitRate, rep.BaselineNsPerQuery)
	for _, p := range rep.Points {
		fmt.Fprintf(os.Stderr,
			"swapsweep: every=%4d (%d swaps) hit=%.4f post-swap=%.4f steady=%.4f pause=%.0fus spot=%d/%d\n",
			p.SwapEvery, p.Swaps, p.HitRate, p.PostSwapHitRate, p.SteadyHitRate,
			p.MeanSwapPauseUs, p.SpotChecks-p.SpotCheckFailures, p.SpotChecks)
	}
	if !rep.AllPointsPass {
		return fmt.Errorf("swapsweep: acceptance failed — a post-swap spot check diverged or the cache never re-warmed")
	}
	return nil
}

// runQuant executes the quantized-path suite (BENCH_4: kernel MB/s at
// both precisions, e2e ns/edge and cache hit rate at equal byte
// budgets, embedded accuracy report) and writes the JSON report to out
// (stdout when empty), with a summary on stderr.
func runQuant(setup experiments.Setup, name string, runs int, out string) error {
	rep, err := perfbench.RunQuant(setup, name, runs)
	if err != nil {
		return err
	}
	if err := writeReport(rep, out); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "quant: kernel int8/float32 %.2fx MB/s\n", rep.KernelSpeedup)
	for _, p := range rep.Budgets {
		fmt.Fprintf(os.Stderr, "quant: budget=%8d hit-rate float32=%.4f (%d entries) int8=%.4f (%d entries)\n",
			p.BudgetBytes, p.Float32HitRate, p.Float32Entries, p.Int8HitRate, p.Int8Entries)
	}
	for _, r := range rep.Results {
		if r.NsPerEdge > 0 {
			fmt.Fprintf(os.Stderr, "quant: %s %.0f ns/edge (budget %d B)\n", r.Name, r.NsPerEdge, rep.E2EBudgetBytes)
		}
	}
	fmt.Fprintf(os.Stderr, "quant: e2e int8 speedup %.2fx, AP delta %.4f, max-abs embed delta %.4f\n",
		rep.E2ESpeedup, rep.Acc.APDelta, rep.Acc.MaxAbsEmbedDelta)
	return nil
}

// runQuantAcc executes the int8-vs-float32 accuracy harness, writes
// the JSON report to out (stdout when empty), and — when maxAPDelta is
// positive — fails if the AP drop exceeds it (the check.sh gate).
func runQuantAcc(setup experiments.Setup, name string, maxAPDelta float64, out string) error {
	rep, err := perfbench.RunQuantAcc(setup, name)
	if err != nil {
		return err
	}
	if err := writeReport(rep, out); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "quantacc: AP float32=%.4f int8=%.4f delta=%.4f acc float32=%.4f int8=%.4f\n",
		rep.APFloat32, rep.APInt8, rep.APDelta, rep.AccFloat32, rep.AccInt8)
	fmt.Fprintf(os.Stderr, "quantacc: max-abs embed delta %.4f, max-abs logit delta %.4f\n",
		rep.MaxAbsEmbedDelta, rep.MaxAbsLogitDelta)
	if maxAPDelta > 0 && rep.APDelta > maxAPDelta {
		return fmt.Errorf("quantacc: AP delta %.4f exceeds -max-ap-delta %.4f", rep.APDelta, maxAPDelta)
	}
	return nil
}

// writeReport marshals a JSON report to out, or stdout when out is
// empty.
func writeReport(rep any, out string) error {
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if out == "" {
		_, err = os.Stdout.Write(buf)
	} else {
		err = os.WriteFile(out, buf, 0o644)
	}
	return err
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: tgopt-bench <table1|table2|fig3|fig4|fig5|fig6|fig7|table3|table4|table5|sampling|train-dedup|batchsweep|warmstart|perf|cachesweep|quant|quantacc|deepsweep|swapsweep|all> [flags]
run "tgopt-bench fig5 -h" for flags`)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tgopt-bench:", err)
	os.Exit(1)
}
