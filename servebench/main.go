// Command servebench is the repository's serving benchmark. It builds an
// in-process serve.Server, drives one of three workloads against it over
// loopback HTTP from at most two client connections, checks the answers
// it samples against unoptimised TGAT, and prints one JSON result line:
//
//	bash servebench/run.sh --workload stream --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics of an
// untraced run. With --trace 1 it carries the per-layer metrics, taken
// from a traced server that is observed only through public functions,
// plus the tracing overhead against an untraced twin run. Each metric
// is described in metrics.go together with the end-to-end metric it is
// predicted to move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	scratch  string
}

// result is what a workload returns to main.
type result struct {
	attempted int
	failed    int
	// wrong lists correctness failures; a non-empty list fails the run.
	wrong   []string
	metrics map[string]float64
}

func (r *result) fail(format string, args ...any) {
	r.wrong = append(r.wrong, fmt.Sprintf(format, args...))
}

// workloads maps a workload name to the function that runs it.
var workloads = map[string]func(opts options) (*result, error){
	"stream": runStream,
	"online": runOnline,
	"mixed":  runMixed,
}

func main() {
	opts, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(2)
	}
	if err := run(opts, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
}

func parseFlags(args []string) (options, error) {
	var opts options
	var trace int
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	fs.StringVar(&opts.workload, "workload", "", "workload: stream, online or mixed")
	fs.Uint64Var(&opts.seed, "seed", 1, "seed of the generated inputs")
	fs.Float64Var(&opts.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run")
	fs.StringVar(&opts.scratch, "scratch", "", "directory for the spill tier's files (default: a directory under the working directory)")
	if err := fs.Parse(args); err != nil {
		return opts, err
	}
	if _, ok := workloads[opts.workload]; !ok {
		return opts, fmt.Errorf("unknown workload %q (want stream, online or mixed)", opts.workload)
	}
	if opts.seconds <= 0 {
		return opts, errors.New("--seconds must be positive")
	}
	if trace != 0 && trace != 1 {
		return opts, errors.New("--trace must be 0 or 1")
	}
	opts.trace = trace == 1
	if opts.scratch == "" {
		opts.scratch = ".bench_build/tmp"
	}
	return opts, nil
}

// run executes one workload and writes the result line to out. A
// correctness failure still prints a result (with "correct": false);
// an error means no valid measurement exists and nothing is printed.
func run(opts options, out *os.File) error {
	fmt.Fprintf(os.Stderr, "servebench: workload=%s seed=%d seconds=%g trace=%v nproc=%d GOMAXPROCS=%d go=%s\n",
		opts.workload, opts.seed, opts.seconds, opts.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	res, err := workloads[opts.workload](opts)
	if err != nil {
		return err
	}
	line, err := resultLine(opts, res)
	if err != nil {
		return err
	}
	report(os.Stderr, opts, res)
	_, err = fmt.Fprintln(out, string(line))
	return err
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultLine renders the result as the one-line JSON object of the
// benchmark's contract (last line of standard output):
// every end-to-end metric without --trace, every per-layer metric with
// it. A metric the workload did not produce is an error, so a missing
// name can never pass silently.
func resultLine(opts options, res *result) ([]byte, error) {
	specs := endToEnd
	if opts.trace {
		specs = perLayer
	}
	out := resultJSON{
		Correct:   len(res.wrong) == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]metricValue, len(specs)),
	}
	if out.Attempted < 1 {
		return nil, errors.New("no requests were attempted")
	}
	for _, m := range specs {
		v, ok := res.metrics[m.name]
		if !ok {
			return nil, fmt.Errorf("workload %s did not report metric %s", opts.workload, m.name)
		}
		out.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	return json.Marshal(out)
}

// report prints the human-readable form of the result: every metric
// with its unit, and for per-layer metrics the end-to-end metric each
// is predicted to move.
func report(w *os.File, opts options, res *result) {
	specs := endToEnd
	if opts.trace {
		specs = perLayer
	}
	fmt.Fprintf(w, "%-36s %14s  %-10s %s\n", "metric", "value", "unit", "predicted to move")
	for _, m := range specs {
		fmt.Fprintf(w, "%-36s %14.6g  %-10s %s\n", m.name, res.metrics[m.name], m.unit, m.moves)
	}
	var extra []string
	for name := range res.metrics {
		if !known(name) {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		fmt.Fprintf(w, "%-36s %14.6g  (informational)\n", name, res.metrics[name])
	}
	fmt.Fprintf(w, "attempted=%d failed=%d (failed_frac %.6g) wrong=%d\n",
		res.attempted, res.failed, float64(res.failed)/float64(max(res.attempted, 1)), len(res.wrong))
	for _, s := range res.wrong {
		fmt.Fprintln(w, "WRONG:", s)
	}
	if len(res.wrong) > 0 {
		fmt.Fprintln(w, "correctness gate FAILED:", res.wrong[0])
	}
}

func known(name string) bool {
	for _, m := range endToEnd {
		if m.name == name {
			return true
		}
	}
	for _, m := range perLayer {
		if m.name == name {
			return true
		}
	}
	return false
}
