package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tgopt/internal/core"
	"tgopt/internal/dataset"
	"tgopt/internal/experiments"
	"tgopt/internal/serve"
	"tgopt/internal/stats"
	"tgopt/internal/tensor"
	"tgopt/internal/tgat"
)

// Model and stream shape shared by the workloads: the repository's
// laptop-scale TGAT (experiments.DefaultSetup) on a jodie-wiki-shaped
// stream, scored in the paper's batches of 200 edges. The workloads
// override only the number of layers and the seed.
var (
	neighbors = experiments.DefaultSetup().K
	batchSize = experiments.DefaultSetup().BatchSize
)

// genDataset generates the seeded jodie-wiki-shaped edge stream with
// the given number of edges (nodes scale with its square root, as in
// dataset.Spec.Scale).
func genDataset(seed uint64, edges int) (*dataset.Dataset, error) {
	spec, err := dataset.SpecByName("jodie-wiki")
	if err != nil {
		return nil, err
	}
	spec = spec.Scale(float64(edges) / float64(spec.Edges))
	spec.Seed = seed
	return dataset.Generate(spec, dataset.Options{FeatureDim: experiments.DefaultSetup().NodeDim})
}

// newModel builds the seeded TGAT model over ds's feature tables.
func newModel(ds *dataset.Dataset, layers int, seed uint64) (*tgat.Model, error) {
	s := experiments.DefaultSetup()
	s.Layers, s.Seed = layers, seed
	return tgat.NewModel(s.ModelConfig(), ds.NodeFeat, ds.EdgeFeat)
}

// harness is one serve.Server listening on loopback.
type harness struct {
	srv    *serve.Server
	model  *tgat.Model
	hs     *http.Server
	served chan error
	base   string
	tr     *tracer // nil when untraced
	// cleanup runs after the server closed (removes spill files).
	cleanup func()
	// heapBase is the live heap before the first build (see setUp).
	heapBase float64
}

// listen serves srv's handler on a loopback port, wrapped in tr's timing
// handler when tr is non-nil, and marks the server ready the way
// tgopt-serve does once its start-up work is done.
func listen(srv *serve.Server, model *tgat.Model, tr *tracer) (*harness, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	h := srv.Handler()
	if tr != nil {
		h = tr.wrapHandler(h)
	}
	srv.SetReady()
	hs := &http.Server{Handler: h}
	hr := &harness{srv: srv, model: model, hs: hs, served: make(chan error, 1),
		base: "http://" + ln.Addr().String(), tr: tr, cleanup: func() {}}
	go func() { hr.served <- hs.Serve(ln) }()
	return hr, nil
}

// close stops the HTTP server, waits for its serve loop to end, and
// closes the engines.
func (h *harness) close() error {
	err := h.hs.Close()
	if serr := <-h.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := h.srv.Close(); cerr != nil && err == nil {
		err = cerr
	}
	h.cleanup()
	return err
}

// setupRepeats is how many times a run builds its server; setup_s is
// the median, and the last build serves the measured phase. A build
// takes 30-90 ms, so single builds move with the host's speed from one
// moment to the next; the median of nine does not.
const setupRepeats = 9

// setUp builds the server setupRepeats times with build, timing each
// build from its first step until /readyz answers 200, and returns the
// last one together with the median set-up time in seconds.
func setUp(c *client, build func() (*harness, error)) (*harness, float64, error) {
	var times []float64
	var h *harness
	base := liveHeapMB()
	for i := 0; i < setupRepeats; i++ {
		if h != nil {
			if err := h.close(); err != nil {
				return nil, 0, err
			}
			// Free the previous build before the next one, so each build
			// starts from the same heap.
			h = nil
			runtime.GC()
		}
		start := time.Now()
		var err error
		h, err = build()
		if err != nil {
			return nil, 0, err
		}
		if err := c.waitReady(h.base); err != nil {
			h.close()
			return nil, 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	sort.Float64s(times)
	h.heapBase = base
	return h, times[len(times)/2], nil
}

// spillDir returns a fresh directory for one server's spill tier and a
// function that removes it.
func spillDir(scratch string) (string, func(), error) {
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return "", nil, err
	}
	dir, err := os.MkdirTemp(scratch, "spill-")
	if err != nil {
		return "", nil, err
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		os.RemoveAll(dir)
		return "", nil, err
	}
	return abs, func() { os.RemoveAll(abs) }, nil
}

// serverHeapMB is the live heap, in MiB after a forced collection, the
// process holds beyond what it held before the server was built.
// Workloads take it right after their warm-up — a fixed number of
// requests, before the client has recorded anything — so it measures
// the server's state after a fixed amount of work: taken at the end of
// the measured phase it grew with the requests the host's speed let the
// run fit in, so a faster server would have looked larger. (Peak RSS
// was tried first: it moved with garbage-collection timing by about 10%
// from run to run, and counted the generated inputs.)
func (h *harness) serverHeapMB() float64 { return liveHeapMB() - h.heapBase }

// liveHeapMB is the heap the process keeps live, in MiB, after a forced
// collection. It collects twice: the first collection only moves
// sync.Pool contents (the engine's pooled arenas) to the victim cache.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// seqHeader carries the client's request number in traced runs, so the
// timing handler's measurement can be matched to the client's.
const seqHeader = "X-Bench-Seq"

// tracer observes a traced server from outside: a timing wrapper around
// Server.Handler, a timing wrapper around each shard's engine
// (shard.Config.WrapEmbedder), and the stats.Collector handed to the
// engines through core.Options.
type tracer struct {
	col *stats.Collector

	mu      sync.Mutex
	handler map[int64]time.Duration // by seqHeader
	ingestT time.Duration           // handler time of /v1/ingest
	allT    time.Duration           // handler time of every request

	passes   atomic.Int64
	passTgts atomic.Int64
	passMu   sync.Mutex
	passDurs []time.Duration
}

func newTracer() *tracer {
	return &tracer{col: stats.NewCollector(), handler: make(map[int64]time.Duration)}
}

func (t *tracer) wrapHandler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		d := time.Since(start)
		seq, err := strconv.ParseInt(r.Header.Get(seqHeader), 10, 64)
		t.mu.Lock()
		if err == nil {
			t.handler[seq] = d
		}
		if r.URL.Path == "/v1/ingest" {
			t.ingestT += d
		}
		t.allT += d
		t.mu.Unlock()
	})
}

// handlerTime returns the handler time recorded for request seq.
func (t *tracer) handlerTime(seq int64) (time.Duration, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	d, ok := t.handler[seq]
	return d, ok
}

// reset forgets everything recorded so far (the warm-up).
func (t *tracer) reset() {
	t.mu.Lock()
	t.handler = make(map[int64]time.Duration)
	t.ingestT, t.allT = 0, 0
	t.mu.Unlock()
	t.passMu.Lock()
	t.passDurs = t.passDurs[:0]
	t.passMu.Unlock()
	t.passes.Store(0)
	t.passTgts.Store(0)
	t.col.Reset()
}

// timedEmbedder times every fused engine pass of one shard.
type timedEmbedder struct {
	core.Embedder
	t *tracer
}

func (e timedEmbedder) EmbedWith(ar *tensor.Arena, nodes []int32, ts []float64) *tensor.Tensor {
	start := time.Now()
	out := e.Embedder.EmbedWith(ar, nodes, ts)
	d := time.Since(start)
	e.t.passes.Add(1)
	e.t.passTgts.Add(int64(len(nodes)))
	e.t.passMu.Lock()
	e.t.passDurs = append(e.t.passDurs, d)
	e.t.passMu.Unlock()
	return out
}

func (t *tracer) wrapEmbedder(_ int, e core.Embedder) core.Embedder {
	return timedEmbedder{Embedder: e, t: t}
}
