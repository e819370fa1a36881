package main

import (
	"time"

	"tgopt/internal/core"
	"tgopt/internal/nn"
	"tgopt/internal/tensor"
	"tgopt/internal/tgat"
)

// kernelBudget is how long each kernel is timed.
const kernelBudget = 150 * time.Millisecond

// kernelMetrics times the model's dense kernels at serving shapes — the
// key projection of one 200-target layer-1 pass (200·k rows of KDim
// inputs) in float32 and int8, and one whole attention layer — and
// computes the dense FLOPs of one edge from the tensor shapes.
func kernelMetrics(m *tgat.Model, layers int, quant core.QuantMode) map[string]float64 {
	cfg := m.Cfg
	k := cfg.NumNeighbors
	rows := batchSize * k
	wk := m.Attn[0].WK
	rng := tensor.NewRNG(7)
	x := randT(rng, rows, cfg.KDim())
	dst := tensor.New(rows, wk.Out())
	linFlops := 2 * float64(rows) * float64(wk.In()) * float64(wk.Out())

	out := map[string]float64{}
	out["tensor.gflops.f32"] = linFlops / timePerCall(func() { tensor.LinearInto(x, wk.W, wk.B, dst) }) / 1e9

	qw := nn.QuantizeLinear(wk)
	q := make([]uint8, rows*cfg.KDim())
	scales := make([]float32, rows)
	sums := make([]int32, rows)
	tensor.QuantizeRowsInto(x, q, scales, sums)
	out["tensor.gflops.int8"] = linFlops / timePerCall(func() {
		tensor.QuantLinearInto(q, scales, sums, rows, qw.W, qw.B, dst)
	}) / 1e9

	// One layer-1 attention pass over batchSize targets, as the engine
	// calls it, at the run's precision.
	ar := tensor.NewArena()
	hTgt := randT(rng, batchSize, cfg.NodeDim)
	hNgh := randT(rng, rows, cfg.NodeDim)
	eFeat := randT(rng, rows, cfg.EdgeDim)
	tEnc0 := randT(rng, batchSize, cfg.TimeDim)
	tEncD := randT(rng, rows, cfg.TimeDim)
	mask := make([]bool, rows)
	for i := range mask {
		mask[i] = true
	}
	forward := m.LayerForwardWith
	if quant == core.QuantInt8 {
		forward = tgat.QuantizeModel(m).LayerForwardWith
	}
	perCall := timePerCall(func() {
		ar.Reset()
		forward(ar, 1, hTgt, hNgh, eFeat, tEnc0, tEncD, mask)
	})
	out["tgat.attention_us_per_row"] = perCall * 1e6 / float64(batchSize)
	out["tensor.flops_per_edge"] = flopsPerEdge(cfg, layers)
	return out
}

// timePerCall runs f repeatedly for kernelBudget and returns the mean
// seconds per call.
func timePerCall(f func()) float64 {
	f() // warm caches and arenas
	n := 0
	start := time.Now()
	for time.Since(start) < kernelBudget {
		f()
		n++
	}
	return time.Since(start).Seconds() / float64(n)
}

// flopsPerEdge is the dense work of scoring one edge without any of
// TGOpt's redundancy elimination: both endpoints expand their L-hop
// sampled subgraph, so layer l runs (1+k)^(L−l) attention rows per
// endpoint, and the affinity head runs once.
func flopsPerEdge(cfg tgat.Config, layers int) float64 {
	q, kd, d, k := float64(cfg.QDim()), float64(cfg.KDim()), float64(cfg.NodeDim), float64(cfg.NumNeighbors)
	e := q            // attention embed dim
	perRow := 2*q*e + // query projection
		2*2*k*kd*e + // key and value projections
		2*2*k*e + // scores and weighted sum
		2*e*e + // output projection
		2*(e+d)*d + 2*d*d // merge FFN
	total := 0.0
	rowsAt := 1.0
	for l := layers; l >= 1; l-- {
		total += 2 * rowsAt * perRow
		rowsAt *= 1 + k
	}
	return total + 2*(2*d*d+d) // affinity head
}

// randT returns a (rows, cols) tensor of standard normal values.
func randT(rng *tensor.RNG, rows, cols int) *tensor.Tensor {
	t := tensor.New(rows, cols)
	for i := range t.Data() {
		t.Data()[i] = float32(rng.NormFloat64())
	}
	return t
}
