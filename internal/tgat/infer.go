package tgat

import (
	"sync"
	"sync/atomic"

	"tgopt/internal/graph"
	"tgopt/internal/tensor"
)

// EmbedFunc computes top-layer temporal embeddings for a batch of
// node–timestamp targets. Both the baseline (Model.Embed) and the
// optimized engine (internal/core) satisfy this signature, so the same
// inference driver measures both.
type EmbedFunc func(nodes []int32, ts []float64) *tensor.Tensor

// EmbedArenaFunc is EmbedFunc drawing all result storage from the
// caller's arena: the returned tensor is invalidated by ar.Reset. The
// stream-inference drivers reset the arena once per batch, making a
// steady-state batch allocation-free end to end (DESIGN.md §9).
type EmbedArenaFunc func(ar *tensor.Arena, nodes []int32, ts []float64) *tensor.Tensor

// BaselineEmbedFunc adapts Model.Embed to an EmbedFunc over the given
// sampler.
func (m *Model) BaselineEmbedFunc(s *graph.Sampler) EmbedFunc {
	return func(nodes []int32, ts []float64) *tensor.Tensor {
		return m.Embed(s, nodes, ts, nil)
	}
}

// StreamResult is the output of one full-stream inference pass.
type StreamResult struct {
	Scores  []float64 // one link-prediction logit per edge, in stream order
	Batches int
}

// Scorer computes affinity logits for paired embedding rows. *Model,
// *QuantModel, and core.Engine all satisfy it, so the stream driver can
// score at whichever precision produced the embeddings.
type Scorer interface {
	ScoreWith(ar *tensor.Arena, hSrc, hDst *tensor.Tensor) *tensor.Tensor
}

// arenaAdapter lifts a plain EmbedFunc into an EmbedArenaFunc (the
// result simply lives on the heap instead of the arena).
func arenaAdapter(embed EmbedFunc) EmbedArenaFunc {
	return func(_ *tensor.Arena, nodes []int32, ts []float64) *tensor.Tensor {
		return embed(nodes, ts)
	}
}

// StreamInferenceArena is StreamInference for an arena-aware embed
// function, with up to `workers` batches in flight at once. Temporal
// embeddings depend only on the (immutable) graph and model — the TGOpt
// cache changes how fast a value is produced, never what it is — so
// batches may be computed in any order or in parallel without changing
// a single score; results are written into stream order. The embed
// function must be safe for concurrent use when workers > 1 (both the
// baseline and the TGOpt engine are). A fixed pool of `workers`
// goroutines claims batch indices off an atomic counter; each worker
// owns one arena and one set of batch buffers for its whole lifetime,
// reset/reused per batch, so steady-state batches perform no heap
// allocation in the driver. With workers <= 1 the stream runs on the
// calling goroutine.
func StreamInferenceArena(g *graph.Graph, m *Model, batchSize, workers int, embed EmbedArenaFunc) *StreamResult {
	return StreamInferenceArenaScored(g, m, batchSize, workers, embed, m)
}

// StreamInferenceArenaScored is StreamInferenceArena scoring through an
// explicit Scorer instead of the model's float affinity head — the int8
// path passes the engine (or QuantModel) so embeddings and logits come
// from the same precision.
func StreamInferenceArenaScored(g *graph.Graph, m *Model, batchSize, workers int, embed EmbedArenaFunc, scorer Scorer) *StreamResult {
	edges := g.Edges()
	nBatches := (len(edges) + batchSize - 1) / batchSize
	res := &StreamResult{Scores: make([]float64, len(edges)), Batches: nBatches}
	if workers > nBatches {
		workers = nBatches
	}
	if workers <= 1 {
		w := newStreamWorker(m, scorer, batchSize)
		for bi := 0; bi < nBatches; bi++ {
			w.runBatch(edges, bi, batchSize, embed, res.Scores)
		}
		return res
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := newStreamWorker(m, scorer, batchSize)
			for {
				bi := int(next.Add(1)) - 1
				if bi >= nBatches {
					return
				}
				w.runBatch(edges, bi, batchSize, embed, res.Scores)
			}
		}()
	}
	wg.Wait()
	return res
}

// streamWorker carries the per-worker reusable state of a stream pass:
// the scratch arena and the packed node/timestamp buffers. One worker
// processes one batch at a time, so all fields are single-owner.
type streamWorker struct {
	m      *Model
	scorer Scorer
	ar     *tensor.Arena
	nodes  []int32
	ts     []float64
}

func newStreamWorker(m *Model, scorer Scorer, batchSize int) *streamWorker {
	return &streamWorker{
		m:      m,
		scorer: scorer,
		ar:     tensor.NewArena(),
		nodes:  make([]int32, 2*batchSize),
		ts:     make([]float64, 2*batchSize),
	}
}

// runBatch embeds and scores batch bi, writing logits into stream
// order. Sources are packed before destinations with duplicated
// timestamps — the batching rule of §3.1.
func (w *streamWorker) runBatch(edges []graph.Edge, bi, batchSize int, embed EmbedArenaFunc, scores []float64) {
	start := bi * batchSize
	end := start + batchSize
	if end > len(edges) {
		end = len(edges)
	}
	batch := edges[start:end]
	nb := len(batch)
	w.ar.Reset()
	nodes := w.nodes[:2*nb]
	ts := w.ts[:2*nb]
	for i, e := range batch {
		nodes[i] = e.Src
		nodes[nb+i] = e.Dst
		ts[i] = e.Time
		ts[nb+i] = e.Time
	}
	d := w.m.Cfg.NodeDim
	h := embed(w.ar, nodes, ts)
	hSrc := w.ar.Wrap(h.Data()[:nb*d], nb, d)
	hDst := w.ar.Wrap(h.Data()[nb*d:], nb, d)
	logits := w.scorer.ScoreWith(w.ar, hSrc, hDst)
	for i := 0; i < nb; i++ {
		scores[start+i] = float64(logits.At(i, 0))
	}
}

// StreamInference performs the paper's standard inference task (§5.1):
// iterate every edge of the graph chronologically in batches of
// batchSize, decouple each edge into its source and destination targets
// sharing the edge timestamp, compute temporal embeddings with embed,
// and score each (source, destination) pair with the model's affinity
// head.
func StreamInference(g *graph.Graph, m *Model, batchSize int, embed EmbedFunc) *StreamResult {
	return StreamInferenceArena(g, m, batchSize, 1, arenaAdapter(embed))
}
