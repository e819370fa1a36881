// Package perfbench is the committed performance harness behind
// `tgopt-bench perf` and scripts/bench.sh. It measures the dense
// kernels, the arena-backed attention operator, and the end-to-end
// stream-inference task, and emits one machine-readable JSON report
// (BENCH_<n>.json at the repo root) so perf regressions are caught by
// diffing committed artifacts rather than by folklore. The end-to-end
// ns/edge metric is the acceptance number: BENCH_1.json must beat the
// pre-optimization BENCH_0.json by the margin recorded in CHANGES.md.
package perfbench

import (
	"runtime"
	"testing"
	"time"

	"tgopt/internal/core"
	"tgopt/internal/experiments"
	"tgopt/internal/nn"
	"tgopt/internal/parallel"
	"tgopt/internal/tensor"
	"tgopt/internal/tgat"
)

// Result is one measured benchmark.
type Result struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	MBPerS      float64 `json:"mb_per_s,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	// End-to-end extras (zero for kernel benches).
	NsPerEdge float64 `json:"ns_per_edge,omitempty"`
	Edges     int     `json:"edges,omitempty"`
}

// Report is the full suite output. GC figures cover the whole suite
// run: after the zero-allocation work the end-to-end passes should
// barely move them.
type Report struct {
	Schema         int      `json:"schema"`
	GoVersion      string   `json:"go_version"`
	GOOS           string   `json:"goos"`
	GOARCH         string   `json:"goarch"`
	MaxProcs       int      `json:"maxprocs"`
	ParallelDegree int      `json:"parallel_degree"`
	Dataset        string   `json:"dataset"`
	Scale          float64  `json:"scale"`
	Runs           int      `json:"runs"`
	GCPauseTotalNs uint64   `json:"gc_pause_total_ns"`
	NumGC          uint32   `json:"num_gc"`
	Results        []Result `json:"results"`
}

// kernelDims are the dense-kernel benchmark dimensions: a full batch of
// attention rows (200 targets × 10 neighbors) against the experiment
// feature widths.
const (
	kernelM = 2048
	kernelK = 96
	kernelN = 64
)

// Run executes the whole suite on the named workload and returns the
// report. runs controls the end-to-end repetitions (minimum is
// reported, matching the paper's methodology of discarding warmup and
// scheduler noise).
func Run(setup experiments.Setup, datasetName string, runs int) (*Report, error) {
	if runs < 1 {
		runs = 1
	}
	w, err := experiments.LoadWorkload(datasetName, setup)
	if err != nil {
		return nil, err
	}
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	rep := &Report{
		Schema:         1,
		GoVersion:      runtime.Version(),
		GOOS:           runtime.GOOS,
		GOARCH:         runtime.GOARCH,
		MaxProcs:       runtime.GOMAXPROCS(0),
		ParallelDegree: parallel.Degree(),
		Dataset:        datasetName,
		Scale:          setup.Scale,
		Runs:           runs,
	}
	rep.Results = append(rep.Results, kernelResults()...)
	rep.Results = append(rep.Results, attentionResult(setup))
	rep.Results = append(rep.Results,
		e2eResult("e2e/stream/baseline", w, setup, core.Options{}, runs),
		e2eResult("e2e/stream/optall", w, setup, optAll(setup), runs),
	)

	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	rep.GCPauseTotalNs = after.PauseTotalNs - before.PauseTotalNs
	rep.NumGC = after.NumGC - before.NumGC
	return rep, nil
}

func optAll(s experiments.Setup) core.Options {
	opt := core.OptAll()
	opt.CacheLimit = s.EffectiveCacheLimit()
	opt.TimeWindow = s.TimeWindow
	return opt
}

// toResult converts a testing.BenchmarkResult, attaching the byte
// volume moved per op for the MB/s figure (0 skips it).
func toResult(name string, r testing.BenchmarkResult, bytesPerOp int64) Result {
	res := Result{
		Name:        name,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: float64(r.MemAllocs) / float64(r.N),
		BytesPerOp:  float64(r.MemBytes) / float64(r.N),
	}
	if bytesPerOp > 0 && r.T > 0 {
		res.MBPerS = float64(bytesPerOp) * float64(r.N) / r.T.Seconds() / 1e6
	}
	return res
}

// kernelResults measures the dense kernels: the blocked kernel behind
// MatMulInto at attention-batch shape, and LinearInto — the projection
// every nn.Linear runs — at linearM rows of the layer-1 K/V shape.
func kernelResults() []Result {
	r := tensor.NewRNG(1)
	a := tensor.Randn(r, kernelM, kernelK)
	b := tensor.Randn(r, kernelK, kernelN)
	dst := tensor.New(kernelM, kernelN)
	bytes := int64(4 * (kernelM*kernelK + kernelK*kernelN + kernelM*kernelN))

	blocked := testing.Benchmark(func(bm *testing.B) {
		bm.ReportAllocs()
		for i := 0; i < bm.N; i++ {
			tensor.MatMulInto(a, b, dst)
		}
	})

	const linearM = 4096
	x := tensor.Randn(r, linearM, kernelK)
	w := tensor.Randn(r, kernelN, kernelK)
	bias := tensor.Randn(r, kernelN)
	ldst := tensor.New(linearM, kernelN)
	linear := testing.Benchmark(func(bm *testing.B) {
		bm.ReportAllocs()
		for i := 0; i < bm.N; i++ {
			tensor.LinearInto(x, w, bias, ldst)
		}
	})
	return []Result{
		toResult("kernel/matmul_blocked", blocked, bytes),
		toResult("kernel/linear_f32", linear, int64(4*(linearM*kernelK+kernelN*kernelK+linearM*kernelN))),
	}
}

// attentionResult measures one arena-backed attention forward at the
// experiment batch shape.
func attentionResult(s experiments.Setup) Result {
	cfg := s.ModelConfig()
	r := tensor.NewRNG(2)
	attn := nn.NewTemporalAttention(r, cfg.Heads, cfg.QDim(), cfg.KDim())
	n := s.BatchSize
	q := tensor.Randn(r, n, cfg.QDim())
	kv := tensor.Randn(r, n*cfg.NumNeighbors, cfg.KDim())
	mask := make([]bool, n*cfg.NumNeighbors)
	for i := range mask {
		mask[i] = i%4 != 3
	}
	ar := tensor.NewArena()
	res := testing.Benchmark(func(bm *testing.B) {
		bm.ReportAllocs()
		for i := 0; i < bm.N; i++ {
			ar.Reset()
			attn.ForwardWith(ar, q, kv, cfg.NumNeighbors, mask)
		}
	})
	return toResult("kernel/attention_forward", res, 0)
}

// e2eResult measures full chronological stream inference over the
// workload under opt: fresh engine per repetition, minimum wall time
// reported, normalized to ns per scored edge. Allocation counts are the
// per-pass malloc totals of the best run's pass.
func e2eResult(name string, w *experiments.Workload, s experiments.Setup, opt core.Options, runs int) Result {
	edges := len(w.DS.Graph.Edges())
	var best time.Duration
	var bestAllocs, bestBytes uint64
	for i := 0; i < runs; i++ {
		eng := core.NewEngine(w.Model, w.Sampler, opt)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		tgat.StreamInferenceArena(w.DS.Graph, w.Model, s.BatchSize, 1, eng.EmbedArenaFunc())
		wall := time.Since(start)
		runtime.ReadMemStats(&m1)
		if i == 0 || wall < best {
			best = wall
			bestAllocs = m1.Mallocs - m0.Mallocs
			bestBytes = m1.TotalAlloc - m0.TotalAlloc
		}
	}
	return Result{
		Name:        name,
		NsPerOp:     float64(best.Nanoseconds()),
		AllocsPerOp: float64(bestAllocs),
		BytesPerOp:  float64(bestBytes),
		NsPerEdge:   float64(best.Nanoseconds()) / float64(edges),
		Edges:       edges,
	}
}
