package main

import (
	"fmt"
	"math"

	"tgopt/internal/graph"
	"tgopt/internal/tensor"
	"tgopt/internal/tgat"
)

// checker decides whether a served row is correct against a reference
// row. tol 0 demands bitwise equality (float32 serving must reproduce
// unoptimised TGAT exactly); tol > 0 bounds the element-wise absolute
// difference (int8 serving against the float32 reference).
type checker struct {
	tol float64
}

func (c checker) rowOK(got, want []float32) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if c.tol == 0 {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				return false
			}
		} else if d := math.Abs(float64(got[i]) - float64(want[i])); !(d <= c.tol) {
			return false
		}
	}
	return true
}

// maxAbsDiff is the largest element-wise absolute difference of two
// rows of equal length.
func maxAbsDiff(got, want []float32) float64 {
	d := 0.0
	for i := range got {
		d = max(d, math.Abs(float64(got[i])-float64(want[i])))
	}
	return d
}

// logitsOK compares served logits to reference logits bitwise.
func logitsOK(got, want []float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return false
		}
	}
	return true
}

// baselineRows computes unoptimised TGAT embeddings — Model.Embed, the
// BaselineEmbedFunc tgat.StreamInference uses — for the targets over s.
func baselineRows(m *tgat.Model, s *graph.Sampler, nodes []int32, ts []float64) [][]float32 {
	h := m.BaselineEmbedFunc(s)(nodes, ts)
	d := m.Cfg.NodeDim
	out := make([][]float32, len(nodes))
	for i := range out {
		out[i] = append([]float32(nil), h.Data()[i*d:(i+1)*d]...)
	}
	return out
}

// baselineLogits scores (src, dst, t) pairs the way tgat.StreamInference
// scores one batch: embed sources ‖ destinations in one baseline call,
// then the model's affinity head.
func baselineLogits(m *tgat.Model, s *graph.Sampler, pairs []edgeJSON) []float64 {
	nb := len(pairs)
	nodes := make([]int32, 2*nb)
	ts := make([]float64, 2*nb)
	for i, p := range pairs {
		nodes[i], nodes[nb+i] = p.Src, p.Dst
		ts[i], ts[nb+i] = p.Time, p.Time
	}
	h := m.BaselineEmbedFunc(s)(nodes, ts)
	d := m.Cfg.NodeDim
	hSrc := tensor.FromSlice(h.Data()[:nb*d], nb, d)
	hDst := tensor.FromSlice(h.Data()[nb*d:2*nb*d], nb, d)
	logits := m.Score(hSrc, hDst)
	out := make([]float64, nb)
	for i := range out {
		out[i] = float64(logits.At(i, 0))
	}
	return out
}

// dynamicOf builds a graph.Dynamic holding edges in order, with the
// given lateness window.
func dynamicOf(numNodes int, lateness float64, edges []graph.Edge) (*graph.Dynamic, error) {
	dyn := graph.NewDynamic(numNodes)
	if lateness > 0 {
		dyn.SetLateness(lateness)
	}
	for _, e := range edges {
		if _, _, err := dyn.Ingest(e); err != nil {
			return nil, err
		}
	}
	return dyn, nil
}

// selfTest is the negative test of the correctness gate: the checker
// must reject a deliberately perturbed row, and a stale row — the row
// of target (v, t) computed before a burst of k late edges (v, u, t-1)
// to distinct recent partners u, which replaces v's whole sampled
// neighbourhood. edges is the reference history in ingest order,
// replayed with the workload's lateness window.
func selfTest(c checker, m *tgat.Model, numNodes int, lateness float64, edges []graph.Edge, v int32, t float64) error {
	before, err := dynamicOf(numNodes, lateness, edges)
	if err != nil {
		return err
	}
	after, err := dynamicOf(numNodes, lateness, edges)
	if err != nil {
		return err
	}
	after.SetLateness(math.MaxFloat64)
	k := m.Cfg.NumNeighbors
	partners := map[int32]bool{v: true}
	for i := len(edges) - 1; i >= 0 && len(partners) <= k; i-- {
		for _, u := range []int32{edges[i].Src, edges[i].Dst} {
			if partners[u] || len(partners) > k {
				continue
			}
			partners[u] = true
			if _, _, err := after.Ingest(graph.Edge{Src: v, Dst: u, Time: t - 1}); err != nil {
				return err
			}
		}
	}
	stale := baselineRows(m, graph.NewDynamicSampler(before, k, graph.MostRecent, 0), []int32{v}, []float64{t})[0]
	fresh := baselineRows(m, graph.NewDynamicSampler(after, k, graph.MostRecent, 0), []int32{v}, []float64{t})[0]
	if !c.rowOK(fresh, fresh) {
		return fmt.Errorf("self-test: checker rejects the reference row itself")
	}
	perturbed := append([]float32(nil), fresh...)
	perturbed[0] += float32(2*c.tol) + float32(math.Abs(float64(perturbed[0])))*1e-6 + 1e-30
	if c.rowOK(perturbed, fresh) {
		return fmt.Errorf("self-test: checker accepted a perturbed row")
	}
	if c.rowOK(stale, fresh) {
		return fmt.Errorf("self-test: checker accepted a stale row (node %d at t=%g before %d late edges at t=%g)", v, t, k, t-1)
	}
	return nil
}
