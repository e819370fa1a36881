package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tgopt/internal/batcher"
	"tgopt/internal/core"
	"tgopt/internal/graph"
	"tgopt/internal/serve"
	"tgopt/internal/shard"
	"tgopt/internal/tgat"
)

// The online workload is many small users: Zipf-popular nodes embedded
// (/v1/embed, 1–8 targets) and scored (/v1/score, 1–4 pairs) at an
// advancing stream clock, beside a trickle of in-order /v1/ingest edges
// whose times are later than any read already issued — so every answer
// is a function of the final graph and can be checked bitwise. The
// server is a 2-shard router with a batcher per shard and a small
// hot-tier budget, so the Zipf tail goes through the spill tier. Most
// lookups hit, so the work is HTTP/JSON, batcher queueing, router
// scatter/gather, cache lookup and spill.
//
// Open-loop Poisson arrivals at a fixed rate (about a third of the
// capacity of the machine the benchmark was tuned on) come first and
// give the SLO share; a closed-loop phase on the same two connections
// follows and gives the capacity and the gated latencies.
const (
	onlineEdges       = 40_000 // first half pre-loaded, second half feeds the ingest trickle
	onlineLayers      = 2
	onlineRate        = 400.0    // open-loop arrivals per second
	onlineWarmup      = 1000     // unmeasured requests
	onlineIngestEvery = 25       // every 25th request ingests 1–4 edges
	onlineSampleEvery = 37       // every 37th read is checked against the baseline
	onlineHotBudget   = 64 << 10 // hot-tier bytes, split across shards
	onlineSpillMax    = 64 << 20
	onlineZipfS       = 1.1
	// onlineLimit is the read latency limit of slo_frac, about 2.5 times
	// the open-loop p90 (3.6 ms) measured on the 2-CPU host the benchmark
	// was tuned on.
	onlineLimit = 9 * time.Millisecond
	// maxLateness is the p99 generator lateness past which an open-loop
	// run is invalid: the schedule was not offered, so its latencies
	// mean nothing. Wake-ups on a busy 2-CPU box ran up to ~35 ms late
	// at p99 without the schedule slipping.
	maxLateness = 100 * time.Millisecond
)

type onlineOp struct {
	kind  string // "embed", "score" or "ingest"
	nodes []int32
	edges []edgeJSON // ingest: endpoints only; the time is set at send
}

// onlineGen generates request i from the seed and i alone.
type onlineGen struct {
	seed    uint64
	popular []int32 // nodes with history, most popular first
	z       zipf
	trickle []graph.Edge // second half of the stream, endpoints reused
}

func (g *onlineGen) op(i int) onlineOp {
	r := newSplitmix(g.seed, i)
	if i%onlineIngestEvery == onlineIngestEvery-1 {
		n := 1 + r.intn(4)
		op := onlineOp{kind: "ingest"}
		for j := 0; j < n; j++ {
			e := g.trickle[(i/onlineIngestEvery*4+j)%len(g.trickle)]
			op.edges = append(op.edges, edgeJSON{Src: e.Src, Dst: e.Dst})
		}
		return op
	}
	if r.intn(4) == 0 {
		n := 1 + r.intn(4)
		op := onlineOp{kind: "score", nodes: make([]int32, 2*n)}
		for j := range op.nodes {
			op.nodes[j] = g.popular[g.z.draw(r)]
		}
		return op
	}
	op := onlineOp{kind: "embed", nodes: make([]int32, 1+r.intn(8))}
	for j := range op.nodes {
		op.nodes[j] = g.popular[g.z.draw(r)]
	}
	return op
}

// onlineSample is one read kept for the bitwise check.
type onlineSample struct {
	kind   string
	nodes  []int32
	t      float64
	rows   [][]float32
	logits []float64
}

// onlineDriver sends onlineGen's requests to one server and keeps the
// stream clock.
type onlineDriver struct {
	c   *client
	h   *harness
	gen *onlineGen
	// clock is the query time of reads. It only advances after an
	// ingest is acknowledged, past that ingest's edge time, so an edge
	// is visible to exactly the reads issued after its acknowledgement.
	clock    atomic.Uint64 // float64 bits
	ingestMu sync.Mutex
	acked    []graph.Edge // acknowledged trickle edges, in ingest order

	sampleMu sync.Mutex
	samples  []onlineSample
	ingestOK atomic.Bool // false once an ingest failed (the reference graph is then unknown)
}

func (d *onlineDriver) now() float64 { return math.Float64frombits(d.clock.Load()) }

// do sends request i. Latency is measured from due, the time the
// request was due to be sent. p may be nil (warm-up).
func (d *onlineDriver) do(i int, due time.Time, p *phase) {
	op := d.gen.op(i)
	if op.kind == "ingest" {
		d.ingest(op, due, p)
		return
	}
	t := d.now()
	ts := make([]float64, len(op.nodes))
	for j := range ts {
		ts[j] = t
	}
	var body []byte
	var url string
	nb := len(op.nodes) / 2
	if op.kind == "score" {
		pairs := make([]edgeJSON, nb)
		for j := range pairs {
			pairs[j] = edgeJSON{Src: op.nodes[j], Dst: op.nodes[nb+j], Time: t}
		}
		body, url = mustJSON(scoreReq{Pairs: pairs}), d.h.base+"/v1/score"
	} else {
		body, url = mustJSON(embedReq{Nodes: op.nodes, Times: ts}), d.h.base+"/v1/embed"
	}
	rep, err := d.c.post(url, body)
	ok := err == nil && rep.status == http.StatusOK
	s := onlineSample{kind: op.kind, nodes: op.nodes, t: t}
	if ok && op.kind == "score" {
		var sr scoreResp
		ok = json.Unmarshal(rep.body, &sr) == nil && len(sr.Logits) == nb
		s.logits = sr.Logits
	} else if ok {
		var er embedResp
		ok = json.Unmarshal(rep.body, &er) == nil && len(er.Embeddings) == len(op.nodes)
		s.rows = er.Embeddings
	}
	if p == nil {
		return
	}
	if ok && i%onlineSampleEvery == 0 {
		d.sampleMu.Lock()
		d.samples = append(d.samples, s)
		d.sampleMu.Unlock()
	}
	if r := d.h.srv.Router(); r != nil && d.c.traced {
		owners := map[int]bool{}
		for _, v := range op.nodes {
			owners[r.Owner(v)] = true
		}
		p.addFanout(len(owners))
	}
	p.addRead(rep.seq, rep.done.Sub(due), ok, onlineLimit, op.nodes, ts)
}

// ingest appends op's edges at a time later than every read issued so
// far, then advances the clock past it.
func (d *onlineDriver) ingest(op onlineOp, due time.Time, p *phase) {
	d.ingestMu.Lock()
	defer d.ingestMu.Unlock()
	t := d.now() + 1
	for j := range op.edges {
		op.edges[j].Time = t
	}
	rep, err := d.c.post(d.h.base+"/v1/ingest", mustJSON(ingestReq{Edges: op.edges}))
	var ir ingestResp
	ok := err == nil && rep.status == http.StatusOK && json.Unmarshal(rep.body, &ir) == nil &&
		ir.Accepted == len(op.edges)
	if !ok {
		d.ingestOK.Store(false)
	} else {
		for _, e := range op.edges {
			d.acked = append(d.acked, graph.Edge{Src: e.Src, Dst: e.Dst, Time: e.Time})
		}
	}
	d.clock.Store(math.Float64bits(t + 1))
	if p != nil {
		p.addIngest(rep.done.Sub(due), ok, len(op.edges), ir)
	}
}

// closedLoop runs maxConns clients back to back for dur, drawing
// request numbers from next.
func (d *onlineDriver) closedLoop(next *atomic.Int64, dur time.Duration, p *phase) {
	var wg sync.WaitGroup
	end := time.Now().Add(dur)
	for w := 0; w < maxConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				d.do(int(next.Add(1)), time.Now(), p)
			}
		}()
	}
	wg.Wait()
}

// warmUp sends requests 1..n back to back on maxConns connections and
// records nothing.
func (d *onlineDriver) warmUp(next *atomic.Int64, n int) {
	var wg sync.WaitGroup
	for w := 0; w < maxConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)); i <= n; i = int(next.Add(1)) {
				d.do(i, time.Now(), nil)
			}
		}()
	}
	wg.Wait()
}

// run drives the warm-up, calls warm, and drives the open-loop phase
// for a third of dur, and the closed-loop phase, which gives the gated
// metrics, for the rest.
func (d *onlineDriver) run(dur time.Duration, open, closed *phase, warm func()) error {
	var next atomic.Int64
	d.warmUp(&next, onlineWarmup)
	warm()
	openDur := dur / 3
	due := poissonSchedule(int64(d.gen.seed), onlineRate, openDur)
	base := int(next.Load()) + 1
	open.start = time.Now()
	open.lateness = openLoop(open.start, due, func(i int, at time.Time) {
		d.do(base+i, at, open)
	})
	open.end = open.start.Add(openDur)
	next.Add(int64(len(due)))
	closed.start = time.Now()
	d.closedLoop(&next, dur-openDur, closed)
	closed.end = time.Now()
	if late := quantile(append([]time.Duration(nil), open.lateness...), 0.99); late > maxLateness {
		return fmt.Errorf("invalid run: the open-loop generator fell behind its schedule (p99 lateness %v > %v)", late, maxLateness)
	}
	return nil
}

func runOnline(opts options) (*result, error) {
	ds, err := genDataset(opts.seed, onlineEdges)
	if err != nil {
		return nil, err
	}
	all := ds.Graph.Edges()
	preload, trickle := all[:len(all)/2], all[len(all)/2:]
	// Popularity follows activity: Zipf ranks the nodes that have
	// history by their degree in the pre-loaded stream, most active
	// first, as a service's busiest users are also its most queried.
	degree := map[int32]int{}
	for _, e := range preload {
		degree[e.Src]++
		degree[e.Dst]++
	}
	popular := make([]int32, 0, len(degree))
	for v := range degree {
		popular = append(popular, v)
	}
	sort.Slice(popular, func(a, b int) bool {
		if degree[popular[a]] != degree[popular[b]] {
			return degree[popular[a]] > degree[popular[b]]
		}
		return popular[a] < popular[b]
	})
	gen := &onlineGen{seed: opts.seed, popular: popular, z: newZipf(len(popular), onlineZipfS), trickle: trickle}
	clock0 := math.Floor(preload[len(preload)-1].Time) + 1

	build := func(tr *tracer) func() (*harness, error) {
		return func() (*harness, error) {
			model, err := newModel(ds, onlineLayers, opts.seed)
			if err != nil {
				return nil, err
			}
			dyn := graph.NewDynamic(ds.Graph.NumNodes())
			for _, e := range preload {
				if _, err := dyn.Append(e); err != nil {
					return nil, err
				}
			}
			dir, cleanup, err := spillDir(opts.scratch)
			if err != nil {
				return nil, err
			}
			opt := core.OptAll()
			opt.CacheBudgetBytes = onlineHotBudget
			opt.CacheSpillDir = dir
			opt.CacheSpillMaxBytes = onlineSpillMax
			cfg := shard.Config{Shards: 2, Batch: &batcher.Config{Window: batcher.DefaultWindow, MaxBatch: batcher.DefaultMaxBatch}}
			if tr != nil {
				opt.Collector = tr.col
				cfg.WrapEmbedder = tr.wrapEmbedder
			}
			srv, err := serve.NewSharded(model, dyn, opt, cfg)
			if err != nil {
				cleanup()
				return nil, err
			}
			h, err := listen(srv, model, tr)
			if err != nil {
				srv.Close()
				cleanup()
				return nil, err
			}
			h.cleanup = cleanup
			return h, nil
		}
	}
	newDriver := func(c *client, h *harness) *onlineDriver {
		d := &onlineDriver{c: c, h: h, gen: gen}
		d.clock.Store(math.Float64bits(clock0))
		d.ingestOK.Store(true)
		return d
	}

	c := newClient()
	defer c.close()
	h, setupS, err := setUp(c, build(nil))
	if err != nil {
		return nil, err
	}
	dur := time.Duration(opts.seconds * float64(time.Second))
	if opts.trace {
		dur /= 2
	}
	d := newDriver(c, h)
	open, closed := &phase{}, &phase{}
	var heap float64
	err = d.run(dur, open, closed, func() { heap = h.serverHeapMB() })
	if cerr := h.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	res := &result{metrics: map[string]float64{}}
	res.attempted = open.attempts + closed.attempts
	res.failed = open.failures + closed.failures
	// The gated latencies and capacity come from the closed loop. The
	// open loop's latencies, timed from the due time, are printed but
	// not gated: on the 2-CPU machine the benchmark was tuned on they
	// spread 0.3-0.7 (IQR over median) across runs whenever other load
	// shared the host, against 0.15-0.3 for the closed loop. The SLO
	// share is the open loop's, where arrivals do not wait for replies.
	for k, v := range closed.endToEnd() {
		res.metrics[k] = v
	}
	openM := open.endToEnd()
	res.metrics["slo_frac"] = openM["slo_frac"]
	res.metrics["open_loop_rps"] = openM["read_rps"]
	res.metrics["open_loop_p50_ms"] = openM["read_p50_ms"]
	res.metrics["open_loop_p90_ms"] = openM["read_p90_ms"]
	res.metrics["open_loop_p99_ms"] = openM["read_p99_ms"]
	res.metrics["setup_s"] = setupS
	res.metrics["server_heap_mb"] = heap

	if opts.trace {
		kern := kernelMetrics(h.model, onlineLayers, core.QuantOff)
		lm, pt, err := tracedRun(c, build, kern, res.metrics["read_rps"], func(h *harness, warm func()) (*phase, *phase, error) {
			open, closed := &phase{}, &phase{}
			err := newDriver(c, h).run(dur, open, closed, warm)
			return closed, merge(open, closed), err
		})
		if err != nil {
			return nil, err
		}
		res.attempted += pt.attempts
		res.failed += pt.failures
		for k, v := range lm {
			res.metrics[k] = v
		}
	}
	checkOnline(res, d, h.model, ds.Graph.NumNodes(), preload)
	return res, nil
}

// checkOnline compares the sampled reads bitwise with unoptimised TGAT
// over the final graph — the pre-load plus every acknowledged trickle
// edge — and runs the gate's negative self-test. A wrong read counts as
// a failed request.
func checkOnline(res *result, d *onlineDriver, m *tgat.Model, numNodes int, preload []graph.Edge) {
	if !d.ingestOK.Load() {
		res.fail("online: an ingest failed, so the graph the reads saw is unknown")
		return
	}
	history := append(append([]graph.Edge(nil), preload...), d.acked...)
	ref, err := dynamicOf(numNodes, 0, history)
	if err != nil {
		res.fail("online: reference graph: %v", err)
		return
	}
	s := graph.NewDynamicSampler(ref, neighbors, graph.MostRecent, 0)
	bitwise := checker{}
	for _, smp := range d.samples {
		ts := make([]float64, len(smp.nodes))
		for j := range ts {
			ts[j] = smp.t
		}
		if smp.kind == "score" {
			nb := len(smp.nodes) / 2
			pairs := make([]edgeJSON, nb)
			for j := range pairs {
				pairs[j] = edgeJSON{Src: smp.nodes[j], Dst: smp.nodes[nb+j], Time: smp.t}
			}
			if !logitsOK(smp.logits, baselineLogits(m, s, pairs)) {
				res.fail("online: score of %v at t=%g differs from unoptimised TGAT", smp.nodes, smp.t)
				res.failed++
			}
			continue
		}
		want := baselineRows(m, s, smp.nodes, ts)
		for j := range want {
			if !bitwise.rowOK(smp.rows[j], want[j]) {
				res.fail("online: row of node %d at t=%g differs from unoptimised TGAT", smp.nodes[j], smp.t)
				res.failed++
				break
			}
		}
	}
	res.metrics["checked_reads"] = float64(len(d.samples))
	last := history[len(history)-1]
	if err := selfTest(bitwise, m, numNodes, 0, history, last.Src, last.Time+2); err != nil {
		res.fail("%v", err)
	}
}
