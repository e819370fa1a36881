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
	"tgopt/internal/tensor"
	"tgopt/internal/tgat"
)

// The mixed workload puts writes beside reads on one int8, L=3 engine
// with a lateness window. One connection sends /v1/ingest batches
// carrying the second half of the stream, shuffled inside the lateness
// window so most edges arrive late and some are dropped. The other
// connection reads closed loop, embedding endpoints of the edges just
// ingested at the current stream clock. It exercises late insert in
// graph.Dynamic, selective and transitive invalidation in core, the
// batcher's retire path and the int8 kernels. At one batch per 40 reads
// the layer-1 and layer-2 memo caches still hit about 75% of lookups,
// while each ingested edge invalidates about five cached entries.
//
// The write schedule is fixed in reads, not in wall-clock time: each
// cycle sends one ingest batch while the reader makes mixedReadsPerBatch
// reads, and the next cycle starts when both are done. A wall-clock
// schedule fed the host's speed back into the result: on a slower host
// the writer took a larger share of the two CPUs and the reader fitted
// fewer reads between ingests. On a shared 2-CPU host read_rps then
// spread 0.21 (interquartile range over median) across ten seeds, with
// two runs 45% above the median.
const (
	mixedEdges         = 60_000 // first half pre-loaded, second half ingested
	mixedLayers        = 3
	mixedBatch         = 25 // edges per ingest request
	mixedReadsPerBatch = 40 // about 420 edges/s at the reader's speed on the 2-CPU tuning host
	mixedWarmupCycles  = 25 // unmeasured cycles
	mixedMaxReads      = 4  // endpoints per read
	// mixedLimit is the read latency limit of slo_frac, about 2.5 times
	// the read p90 measured on the 2-CPU host the benchmark was tuned on.
	mixedLimit = 6 * time.Millisecond
	// The lateness window is mixedLatenessGaps mean inter-event gaps;
	// the shuffle displaces edges by up to mixedJitter windows, so most
	// edges are late and the most displaced are dropped.
	mixedLatenessGaps = 64
	mixedJitter       = 1.25
	mixedKeepEvery    = 64  // the rows of every 64th read are kept if it overlapped no ingest
	mixedChecked      = 100 // kept reads checked against the baseline
	// int8MaxDelta pins the int8 path's accuracy: the largest max-abs
	// embedding difference between float32 and int8 engines (the
	// quantacc method, over the last mixedCalibBatches batches of the
	// pre-loaded graph) that a run accepts. Seeds 1-39 of this L=3 model
	// measured 0.022-0.038. Served int8 rows, many more than the
	// calibration's, must be within int8Tol of the float32 reference.
	int8MaxDelta      = 0.05
	int8Tol           = 2 * int8MaxDelta
	mixedCalibBatches = 3
)

// mixedTarget is one served ⟨node, time⟩ target, kept for the sweep.
// prefix is how many ingest batches were acknowledged when it was read.
type mixedTarget struct {
	v      int32
	prefix int32
	t      float64
}

// mixedRead is one read whose rows are kept for the quiet-read check:
// no ingest ran while it was in flight, so its answer must match the
// graph after exactly prefix batches.
type mixedRead struct {
	nodes  []int32
	t      float64
	rows   [][]float32
	prefix int
}

type mixedDriver struct {
	c       *client
	h       *harness
	batches [][]edgeJSON
	next    int // next batch to send

	started atomic.Int64 // ingest batches sent
	acked   atomic.Int64 // ingest batches acknowledged
	ackMu   sync.Mutex
	lastAck int     // index of the last acknowledged batch, -1 before any
	clock   float64 // query time: just past the last acknowledged max_time
	ingOK   atomic.Bool

	// The reader's query-time counter (see read).
	seen, k int

	targets []mixedTarget
	kept    []mixedRead
}

// ingest sends batch i on the writer connection.
func (d *mixedDriver) ingest(i int, p *phase) {
	b := d.batches[i]
	d.started.Add(1)
	rep, err := d.c.post(d.h.base+"/v1/ingest", mustJSON(ingestReq{Edges: b}))
	var ir ingestResp
	ok := err == nil && rep.status == http.StatusOK && json.Unmarshal(rep.body, &ir) == nil &&
		ir.Accepted+ir.Late+ir.Dropped == len(b)
	if !ok {
		d.ingOK.Store(false)
	}
	d.ackMu.Lock()
	d.lastAck = i
	if ok {
		d.clock = math.Floor(ir.MaxTime) + 1
	}
	d.ackMu.Unlock()
	d.acked.Add(1)
	if p != nil {
		p.addIngest(rep.done.Sub(rep.sent), ok, len(b), ir)
	}
}

// read embeds endpoints of the last acknowledged batch. The k-th read
// after an acknowledgement queries time clock+k: no two reads share a
// query time, so a read costs the same however many reads fall between
// two ingests (repeated ⟨node, t⟩ targets would hit the memo cache). p
// is nil in the warm-up, whose reads are not recorded.
func (d *mixedDriver) read(seed uint64, i int, p *phase) {
	r := newSplitmix(seed, i)
	d.ackMu.Lock()
	last, t := d.lastAck, d.clock
	d.ackMu.Unlock()
	if last != d.seen {
		d.seen, d.k = last, 0
	}
	t += float64(d.k)
	d.k++
	src := d.batches[max(last, 0)]
	nodes := make([]int32, 1+r.intn(mixedMaxReads))
	ts := make([]float64, len(nodes))
	for j := range nodes {
		e := src[r.intn(len(src))]
		nodes[j], ts[j] = e.Src, t
		if r.intn(2) == 0 {
			nodes[j] = e.Dst
		}
	}
	prefix := int(d.acked.Load())
	rep, err := d.c.post(d.h.base+"/v1/embed", mustJSON(embedReq{Nodes: nodes, Times: ts}))
	quiet := d.started.Load() == int64(prefix)
	var er embedResp
	ok := err == nil && rep.status == http.StatusOK && json.Unmarshal(rep.body, &er) == nil &&
		len(er.Embeddings) == len(nodes)
	if p == nil {
		return
	}
	if ok {
		for _, v := range nodes {
			d.targets = append(d.targets, mixedTarget{v: v, prefix: int32(prefix), t: t})
		}
		if quiet && i%mixedKeepEvery == 0 {
			d.kept = append(d.kept, mixedRead{nodes: nodes, t: t, rows: er.Embeddings, prefix: prefix})
		}
	}
	p.addRead(rep.seq, rep.done.Sub(rep.sent), ok, mixedLimit, nodes, ts)
}

// cycle sends the next ingest batch on the writer connection while the
// reader makes mixedReadsPerBatch reads, numbered from i, and returns
// when both are done. reads and writes are nil in the warm-up.
func (d *mixedDriver) cycle(seed uint64, i int, reads, writes *phase) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func(b int) {
		defer wg.Done()
		d.ingest(b, writes)
	}(d.next)
	for n := 0; n < mixedReadsPerBatch; n++ {
		d.read(seed, i+n, reads)
	}
	wg.Wait()
	d.next++
}

// run drives mixedWarmupCycles unrecorded cycles, calls warm, then
// runs cycles for dur, or until the ingest stream runs out.
func (d *mixedDriver) run(seed uint64, dur time.Duration, reads, writes *phase, warm func()) {
	for c := 0; c < mixedWarmupCycles; c++ {
		d.cycle(seed^0xA5A5, c*mixedReadsPerBatch, nil, nil)
	}
	warm()
	start := time.Now()
	end := start.Add(dur)
	reads.start, writes.start = start, start
	for i := 0; time.Now().Before(end) && d.next < len(d.batches); i += mixedReadsPerBatch {
		d.cycle(seed, i, reads, writes)
	}
	reads.end = time.Now()
	writes.end = reads.end
}

func runMixed(opts options) (*result, error) {
	ds, err := genDataset(opts.seed, mixedEdges)
	if err != nil {
		return nil, err
	}
	all := ds.Graph.Edges()
	preload, rest := all[:len(all)/2], all[len(all)/2:]
	gap := (rest[len(rest)-1].Time - rest[0].Time) / float64(len(rest))
	lateness := math.Max(1, math.Round(mixedLatenessGaps*gap))
	// Shuffle inside the window: send in order of time + U(0, jitter·W).
	r := newSplitmix(opts.seed, -2)
	order := make([]int, len(rest))
	key := make([]float64, len(rest))
	for i, e := range rest {
		order[i] = i
		key[i] = e.Time + r.float()*mixedJitter*lateness
	}
	sort.SliceStable(order, func(a, b int) bool { return key[order[a]] < key[order[b]] })
	var batches [][]edgeJSON
	var sent []graph.Edge // ingest order
	for lo := 0; lo+mixedBatch <= len(order); lo += mixedBatch {
		b := make([]edgeJSON, mixedBatch)
		for j, i := range order[lo : lo+mixedBatch] {
			e := rest[i]
			b[j] = edgeJSON{Src: e.Src, Dst: e.Dst, Time: e.Time, Idx: e.Idx}
			sent = append(sent, e)
		}
		batches = append(batches, b)
	}

	build := func(tr *tracer) func() (*harness, error) {
		return func() (*harness, error) {
			model, err := newModel(ds, mixedLayers, opts.seed)
			if err != nil {
				return nil, err
			}
			dyn, err := dynamicOf(ds.Graph.NumNodes(), lateness, preload)
			if err != nil {
				return nil, err
			}
			opt := core.OptAll()
			opt.Quant = core.QuantInt8
			if tr != nil {
				opt.Collector = tr.col
			}
			srv := serve.New(model, dyn, opt)
			srv.SetBatching(batcher.Config{Window: batcher.DefaultWindow, MaxBatch: batcher.DefaultMaxBatch})
			return listen(srv, model, tr)
		}
	}
	newDriver := func(c *client, h *harness) *mixedDriver {
		d := &mixedDriver{c: c, h: h, batches: batches, lastAck: -1, clock: math.Floor(preload[len(preload)-1].Time) + 1}
		d.ingOK.Store(true)
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
	reads, writes := &phase{}, &phase{}
	var heap float64
	d.run(opts.seed, dur, reads, writes, func() { heap = h.serverHeapMB() })
	res := &result{metrics: map[string]float64{}}
	res.attempted = reads.attempts + writes.attempts
	res.failed = reads.failures + writes.failures
	for k, v := range reads.endToEnd() {
		res.metrics[k] = v
	}
	res.metrics["setup_s"] = setupS
	res.metrics["server_heap_mb"] = heap
	wl := append([]time.Duration(nil), writes.ingests...)
	res.metrics["ingest_p50_ms"] = ms(quantile(wl, 0.5))
	res.metrics["ingest_p99_ms"] = ms(quantile(wl, 0.99))
	res.metrics["ingested_edges_per_s"] = float64(writes.edges) / writes.end.Sub(writes.start).Seconds()

	if opts.trace {
		kern := kernelMetrics(h.model, mixedLayers, core.QuantInt8)
		lm, pt, err := tracedRun(c, build, kern, res.metrics["read_rps"], func(h *harness, warm func()) (*phase, *phase, error) {
			reads, writes := &phase{}, &phase{}
			newDriver(c, h).run(opts.seed, dur, reads, writes, warm)
			return reads, merge(reads, writes), nil
		})
		if err != nil {
			h.close()
			return nil, err
		}
		res.attempted += pt.attempts
		res.failed += pt.failures
		for k, v := range lm {
			res.metrics[k] = v
		}
	}
	err = checkMixed(res, c, d, h, ds.Graph.NumNodes(), lateness, preload, sent)
	if cerr := h.close(); err == nil {
		err = cerr
	}
	return res, err
}

// checkMixed is the mixed workload's correctness gate, run after the
// timed phase against the server that served it:
//   - the int8 path's float32-vs-int8 delta on the pre-loaded graph must
//     stay within the pinned int8MaxDelta;
//   - kept quiet reads must be within int8Tol of unoptimised float32
//     TGAT over the graph after their prefix;
//   - an end-of-run sweep re-queries every served target that a late
//     (or later-appended) edge touched, and each row must be within
//     int8Tol of the final graph's reference, so a stale memo fails;
//   - the negative self-test must reject a perturbed and a stale row.
func checkMixed(res *result, c *client, d *mixedDriver, h *harness, numNodes int, lateness float64, preload, sent []graph.Edge) error {
	m := h.model
	if !d.ingOK.Load() {
		res.fail("mixed: an ingest failed, so the graph the reads saw is unknown")
		return nil
	}
	delta := calibrateDelta(m, numNodes, lateness, preload)
	res.metrics["int8_max_delta"] = delta
	if !(delta <= int8MaxDelta) {
		res.fail("mixed: the int8 path's max-abs embedding delta %g on the pre-loaded graph exceeds the pinned %g", delta, int8MaxDelta)
	}
	chk := checker{tol: int8Tol}
	served := 0.0 // largest served-row delta, reported for the margin

	// Kept quiet reads, evenly spaced over the run, checked in prefix
	// order over one replayed graph.
	var sample []mixedRead
	n := min(mixedChecked, len(d.kept))
	for i := 0; i < n; i++ {
		sample = append(sample, d.kept[i*len(d.kept)/n])
	}
	sort.SliceStable(sample, func(a, b int) bool { return sample[a].prefix < sample[b].prefix })
	ref, err := dynamicOf(numNodes, lateness, preload)
	if err != nil {
		return err
	}
	applied := 0
	outcome := make([]graph.IngestResult, len(sent))
	apply := func(upTo int) error {
		for ; applied < upTo*mixedBatch && applied < len(sent); applied++ {
			res, _, err := ref.Ingest(sent[applied])
			if err != nil {
				return err
			}
			outcome[applied] = res
		}
		return nil
	}
	checked := 0
	for _, rd := range sample {
		if err := apply(rd.prefix); err != nil {
			return err
		}
		ts := make([]float64, len(rd.nodes))
		for j := range ts {
			ts[j] = rd.t
		}
		want := baselineRows(m, graph.NewDynamicSampler(ref, neighbors, graph.MostRecent, 0), rd.nodes, ts)
		for j := range want {
			served = max(served, maxAbsDiff(rd.rows[j], want[j]))
			if !chk.rowOK(rd.rows[j], want[j]) {
				res.fail("mixed: row of node %d at t=%g after %d batches is outside the int8 tolerance %g", rd.nodes[j], rd.t, rd.prefix, int8Tol)
				res.failed++
				break
			}
		}
		checked++
	}
	res.metrics["checked_reads"] = float64(checked)

	// End-of-run sweep over the final graph (every batch the writer
	// sent was acknowledged by now).
	if err := apply(int(d.acked.Load())); err != nil {
		return err
	}
	type key struct {
		v int32
		t float64
	}
	firstPrefix := map[key]int32{}
	for _, tg := range d.targets {
		k := key{tg.v, tg.t}
		if p, ok := firstPrefix[k]; !ok || tg.prefix < p {
			firstPrefix[k] = tg.prefix
		}
	}
	// touching[v] lists, in ingest order, the kept edges incident to v.
	touching := map[int32][]int{}
	for i, e := range sent[:applied] {
		if outcome[i] != graph.IngestDropped {
			touching[e.Src] = append(touching[e.Src], i)
			if e.Dst != e.Src {
				touching[e.Dst] = append(touching[e.Dst], i)
			}
		}
	}
	var sweep []key
	for k, p := range firstPrefix {
		for _, i := range touching[k.v] {
			if i >= int(p)*mixedBatch && sent[i].Time < k.t {
				sweep = append(sweep, k)
				break
			}
		}
	}
	sort.Slice(sweep, func(a, b int) bool {
		if sweep[a].t != sweep[b].t {
			return sweep[a].t < sweep[b].t
		}
		return sweep[a].v < sweep[b].v
	})
	// The reference rows come from a float32 engine over the final
	// graph, itself checked bitwise against unoptimised TGAT on a few
	// of the swept targets.
	refEng := core.NewEngine(m, graph.NewDynamicSampler(ref, neighbors, graph.MostRecent, 0), core.OptAll())
	base := graph.NewDynamicSampler(ref, neighbors, graph.MostRecent, 0)
	// Small chunks keep the L=3 passes' intermediates (k³ neighbours per
	// target) to tens of MB. The reference rows of a chunk are computed
	// while the server answers it.
	const chunk = 64
	for lo := 0; lo < len(sweep); lo += chunk {
		part := sweep[lo:min(lo+chunk, len(sweep))]
		nodes := make([]int32, len(part))
		ts := make([]float64, len(part))
		for j, k := range part {
			nodes[j], ts[j] = k.v, k.t
		}
		var want *tensor.Tensor
		refDone := make(chan struct{})
		go func() {
			defer close(refDone)
			want = refEng.Embed(nodes, ts)
		}()
		rep, err := c.post(h.base+"/v1/embed", mustJSON(embedReq{Nodes: nodes, Times: ts}))
		<-refDone
		var er embedResp
		if err != nil || rep.status != http.StatusOK || json.Unmarshal(rep.body, &er) != nil || len(er.Embeddings) != len(nodes) {
			res.fail("mixed: sweep request failed (status %d, err %v)", rep.status, err)
			res.failed++
			continue
		}
		dim := m.Cfg.NodeDim
		if lo == 0 {
			n := min(4, len(nodes))
			b := baselineRows(m, base, nodes[:n], ts[:n])
			for j := range b {
				if !(checker{}).rowOK(want.Data()[j*dim:(j+1)*dim], b[j]) {
					return fmt.Errorf("mixed: the float32 reference engine disagrees with unoptimised TGAT")
				}
			}
		}
		for j := range nodes {
			served = max(served, maxAbsDiff(er.Embeddings[j], want.Data()[j*dim:(j+1)*dim]))
			if !chk.rowOK(er.Embeddings[j], want.Data()[j*dim:(j+1)*dim]) {
				res.fail("mixed: sweep row of node %d at t=%g is stale or wrong (outside int8 tolerance %g)", nodes[j], ts[j], int8Tol)
				res.failed++
			}
		}
	}
	res.metrics["swept_targets"] = float64(len(sweep))
	res.metrics["int8_served_max_delta"] = served

	// Negative self-test on the last swept target (or the last edge).
	v, t := sent[0].Src, sent[0].Time+1
	if len(sweep) > 0 {
		v, t = sweep[len(sweep)-1].v, sweep[len(sweep)-1].t
	}
	if err := selfTest(chk, m, numNodes, lateness, append(append([]graph.Edge(nil), preload...), sent[:applied]...), v, t); err != nil {
		res.fail("%v", err)
	}
	return nil
}

// calibrateDelta measures the quantacc harness's max-abs embedding
// delta between float32 and int8 engines (all optimisations on, so int8
// memo entries are reused as in serving) over the last
// mixedCalibBatches batches of the pre-loaded stream.
func calibrateDelta(m *tgat.Model, numNodes int, lateness float64, preload []graph.Edge) float64 {
	dyn, err := dynamicOf(numNodes, lateness, preload)
	if err != nil {
		return math.Inf(1)
	}
	s := graph.NewDynamicSampler(dyn, neighbors, graph.MostRecent, 0)
	optQ := core.OptAll()
	optQ.Quant = core.QuantInt8
	engF := core.NewEngine(m, s, core.OptAll())
	engQ := core.NewEngine(m, s, optQ)
	maxAbs := 0.0
	arF, arQ := tensor.NewArena(), tensor.NewArena()
	// In ingest-sized chunks, to bound the L=3 passes' memory.
	calib := preload[len(preload)-mixedCalibBatches*batchSize:]
	for lo := 0; lo < len(calib); lo += mixedBatch {
		edges := calib[lo:min(lo+mixedBatch, len(calib))]
		nodes := make([]int32, 2*len(edges))
		ts := make([]float64, 2*len(edges))
		for i, e := range edges {
			nodes[i], nodes[len(edges)+i] = e.Src, e.Dst
			ts[i], ts[len(edges)+i] = e.Time, e.Time
		}
		arF.Reset()
		arQ.Reset()
		hF := engF.EmbedWith(arF, nodes, ts)
		hQ := engQ.EmbedWith(arQ, nodes, ts)
		if d := hF.MaxAbsDiff(hQ); d > maxAbs {
			maxAbs = d
		}
	}
	return maxAbs
}
