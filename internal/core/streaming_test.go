package core

import (
	"testing"

	"tgopt/internal/graph"
	"tgopt/internal/tensor"
	"tgopt/internal/tgat"
)

// TestEngineSoundOnLiveStream exercises the property §3.2 rests on, end
// to end: memoized embeddings stay valid while the graph keeps growing.
// We ingest a stream into a graph.Dynamic in chunks, embedding each
// chunk's interactions as they arrive with a cache-enabled engine, and
// compare every batch against a fresh baseline computed on an immutable
// snapshot of the full stream.
func TestEngineSoundOnLiveStream(t *testing.T) {
	r := tensor.NewRNG(3)
	const nodes = 30
	const total = 900
	// Pre-generate the chronological stream.
	stream := make([]graph.Edge, 0, total)
	clock := 0.0
	for len(stream) < total {
		clock += 1 + r.Float64()*20
		src := int32(1 + r.Intn(nodes))
		dst := int32(1 + r.Intn(nodes))
		if src == dst {
			continue
		}
		stream = append(stream, graph.Edge{Src: src, Dst: dst, Time: clock, Idx: int32(len(stream) + 1)})
	}

	cfg := tgat.Config{Layers: 2, Heads: 2, NodeDim: 16, EdgeDim: 16, TimeDim: 16, NumNeighbors: 5, Seed: 7}
	nodeFeat := tensor.Randn(r, nodes+1, 16)
	for j := 0; j < 16; j++ {
		nodeFeat.Set(0, 0, j)
	}
	edgeFeat := tensor.Randn(r, total+1, 16)
	for j := 0; j < 16; j++ {
		edgeFeat.Set(0, 0, j)
	}
	m, err := tgat.NewModel(cfg, nodeFeat, edgeFeat)
	if err != nil {
		t.Fatal(err)
	}

	dyn := graph.NewDynamic(nodes)
	liveSampler := graph.NewDynamicSampler(dyn, cfg.NumNeighbors, graph.MostRecent, 0)
	eng := NewEngine(m, liveSampler, OptAll())

	// Reference: the full stream as an immutable graph.
	full, err := graph.NewGraph(nodes, stream)
	if err != nil {
		t.Fatal(err)
	}
	refSampler := graph.NewSampler(full, cfg.NumNeighbors, graph.MostRecent, 0)

	const chunk = 90
	for start := 0; start < total; start += chunk {
		batch := stream[start : start+chunk]
		// Ingest the chunk, then embed its interactions (each edge's
		// targets are queried at the edge's own timestamp, after it and
		// everything before it has been appended — the standard online
		// inference discipline).
		for _, e := range batch {
			if _, err := dyn.Append(e); err != nil {
				t.Fatal(err)
			}
		}
		ns := make([]int32, 2*len(batch))
		ts := make([]float64, 2*len(batch))
		for i, e := range batch {
			ns[i], ns[len(batch)+i] = e.Src, e.Dst
			ts[i], ts[len(batch)+i] = e.Time, e.Time
		}
		live := eng.Embed(ns, ts)
		ref := m.Embed(refSampler, ns, ts, nil)
		if d := live.MaxAbsDiff(ref); d > 1e-5 {
			t.Fatalf("chunk at %d: live-stream embeddings diverge from reference by %g", start, d)
		}
	}
	if eng.CacheLen() == 0 {
		t.Fatal("no embeddings were memoized during the stream")
	}
}

// TestEngineOnDynamicMatchesSnapshot runs the whole standard inference
// task against a Dynamic-backed sampler and a Graph-backed one and
// demands identical scores.
func TestEngineOnDynamicMatchesSnapshot(t *testing.T) {
	ds, m, s := engineTestSetup(t, 400)
	dyn := graph.NewDynamic(ds.Graph.NumNodes())
	for _, e := range ds.Graph.Edges() {
		if _, err := dyn.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	dynSampler := graph.NewDynamicSampler(dyn, m.Cfg.NumNeighbors, graph.MostRecent, 0)
	engG := NewEngine(m, s, OptAll())
	engD := NewEngine(m, dynSampler, OptAll())
	a := tgat.StreamInference(ds.Graph, m, 100, engG.EmbedFunc())
	b := tgat.StreamInference(ds.Graph, m, 100, engD.EmbedFunc())
	for i := range a.Scores {
		if a.Scores[i] != b.Scores[i] {
			t.Fatalf("score %d differs between Graph and Dynamic backends", i)
		}
	}
}

// TestEngineConcurrentStreamMatchesSerial drives the TGOpt engine (with
// its shared concurrent cache) through the batch-parallel inference
// driver and demands identical scores to the sequential pass.
func TestEngineConcurrentStreamMatchesSerial(t *testing.T) {
	ds, m, s := engineTestSetup(t, 600)
	serial := tgat.StreamInference(ds.Graph, m, 100, m.BaselineEmbedFunc(s))
	eng := NewEngine(m, s, OptAll())
	conc := tgat.StreamInferenceArena(ds.Graph, m, 100, 4, eng.EmbedArenaFunc())
	for i := range serial.Scores {
		d := serial.Scores[i] - conc.Scores[i]
		if d < 0 {
			d = -d
		}
		if d > 1e-5 {
			t.Fatalf("score %d differs by %g under concurrent TGOpt", i, d)
		}
	}
	if eng.CacheLen() == 0 {
		t.Fatal("concurrent pass cached nothing")
	}
}
