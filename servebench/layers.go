package main

import (
	"sort"
	"sync"
	"time"

	"tgopt/internal/batcher"
	"tgopt/internal/core"
	"tgopt/internal/stats"
)

// windows is how many equal windows a phase is cut into. The gated
// read metrics are medians over the windows, so a burst of load from
// outside the benchmark in one window does not move them.
const windows = 5

// phase is the client's record of one measured phase.
type phase struct {
	mu sync.Mutex

	start, end time.Time
	// reads are the latencies of /v1/embed and /v1/score requests (from
	// the due time in open-loop phases); readSeqs their request numbers.
	reads    []time.Duration
	readSeqs []int64
	doneAt   []time.Time
	readOK   int // answered 200 within the workload's latency limit
	readTry  int // reads attempted
	ingests  []time.Duration
	attempts int
	failures int

	targets   int64 // top-level embedding targets requested by reads
	dedupSum  float64
	fanoutSum float64
	fanoutN   int

	edges              int // edges sent to /v1/ingest
	late, dropped, inv int // outcomes from the /v1/ingest bodies

	lateness []time.Duration // open-loop generator lateness
}

// addRead records one finished read. ok is false for a failed request
// (non-200, transport error or wrong row). nodes and ts are the read's
// embedding targets.
func (p *phase) addRead(seq int64, lat time.Duration, ok bool, limit time.Duration, nodes []int32, ts []float64) {
	dup := core.DuplicationRatio(nodes, ts)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.attempts++
	p.readTry++
	if !ok {
		p.failures++
		return
	}
	p.reads = append(p.reads, lat)
	p.readSeqs = append(p.readSeqs, seq)
	p.doneAt = append(p.doneAt, time.Now())
	if lat <= limit {
		p.readOK++
	}
	p.targets += int64(len(nodes))
	p.dedupSum += dup
}

// addIngest records one finished /v1/ingest request.
func (p *phase) addIngest(lat time.Duration, ok bool, n int, resp ingestResp) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.attempts++
	if !ok {
		p.failures++
		return
	}
	p.ingests = append(p.ingests, lat)
	p.edges += n
	p.late += resp.Late
	p.dropped += resp.Dropped
	p.inv += resp.Invalidated
}

func (p *phase) addFanout(shards int) {
	p.mu.Lock()
	p.fanoutSum += float64(shards)
	p.fanoutN++
	p.mu.Unlock()
}

// endToEnd returns the phase's read metrics: read_rps, read_p50_ms and
// read_p90_ms are the medians of their values in each window (a read
// belongs to the window it finished in). The gated tail is p90: p99 is
// reported too, over the whole phase, but from run to run it spread too
// widely on the 2-CPU machine the benchmark was tuned on to hold any
// bound.
func (p *phase) endToEnd() map[string]float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	win := p.end.Sub(p.start) / windows
	byWin := make([][]time.Duration, windows)
	for i, at := range p.doneAt {
		if w := int(at.Sub(p.start) / win); w >= 0 && w < windows {
			byWin[w] = append(byWin[w], p.reads[i])
		}
	}
	median := func(f func(lat []time.Duration) float64) float64 {
		vs := make([]float64, windows)
		for w, lat := range byWin {
			vs[w] = f(lat)
		}
		sort.Float64s(vs)
		return vs[windows/2]
	}
	m := map[string]float64{
		"read_rps":    median(func(lat []time.Duration) float64 { return float64(len(lat)) / win.Seconds() }),
		"read_p50_ms": median(func(lat []time.Duration) float64 { return ms(quantile(lat, 0.5)) }),
		"read_p90_ms": median(func(lat []time.Duration) float64 { return ms(quantile(lat, 0.9)) }),
		"read_p99_ms": ms(quantile(append([]time.Duration(nil), p.reads...), 0.99)),
		"reads":       float64(len(p.reads)),
	}
	if p.readTry > 0 {
		m["slo_frac"] = float64(p.readOK) / float64(p.readTry)
	}
	return m
}

// tracedRun is the traced half of a --trace 1 run. It builds a traced
// twin of the server, drives it with drive — which must call warm once
// its warm-up is done (warm resets the tracer and snapshots the layer
// counters), and returns its read phase and the record of all its
// requests — and returns every per-layer metric together with that
// record.
// untracedRPS is the untraced twin's read_rps, for the overhead.
func tracedRun(c *client, build func(*tracer) func() (*harness, error), kern map[string]float64, untracedRPS float64,
	drive func(h *harness, warm func()) (reads, all *phase, err error)) (map[string]float64, *phase, error) {
	tr := newTracer()
	h, err := build(tr)()
	if err != nil {
		return nil, nil, err
	}
	if err := c.waitReady(h.base); err != nil {
		h.close()
		return nil, nil, err
	}
	c.traced = true
	defer func() { c.traced = false }()
	var before counters
	reads, all, err := drive(h, func() {
		tr.reset()
		before = readCounters(h)
	})
	if err != nil {
		h.close()
		return nil, nil, err
	}
	m := layerMetrics(h, all, before, readCounters(h), kern)
	m["trace.overhead_frac"] = overhead(untracedRPS, reads.endToEnd()["read_rps"])
	return m, all, h.close()
}

// overhead is the traced run's capacity loss against the untraced run.
func overhead(untraced, traced float64) float64 {
	if untraced <= 0 {
		return 0
	}
	return 1 - traced/untraced
}

// merge combines the records of two phases of one traced run (reads
// and writes, or open and closed loop) for the per-layer metrics.
func merge(a, b *phase) *phase {
	p := &phase{start: a.start, end: b.end}
	for _, q := range []*phase{a, b} {
		p.attempts += q.attempts
		p.failures += q.failures
		p.reads = append(p.reads, q.reads...)
		p.readSeqs = append(p.readSeqs, q.readSeqs...)
		p.ingests = append(p.ingests, q.ingests...)
		p.targets += q.targets
		p.dedupSum += q.dedupSum
		p.fanoutSum += q.fanoutSum
		p.fanoutN += q.fanoutN
		p.edges += q.edges
		p.late += q.late
		p.dropped += q.dropped
		p.inv += q.inv
		p.lateness = append(p.lateness, q.lateness...)
	}
	return p
}

// counters is a snapshot of the counters the server's layers expose
// through public functions.
type counters struct {
	layers map[int]core.CacheStats
	skips  int64
	batch  batcher.Snapshot
	// passes counts fused engine passes: the batcher's count on a
	// single engine, the engine wrappers' count on the router.
	passes  int64
	qwMean  time.Duration // mean batcher queue wait (single engine)
	hedges  int64
	routed  int64
	legP50  float64
	legP99  float64
	cacheB  int64
	sharded bool
}

func readCounters(h *harness) counters {
	c := counters{layers: map[int]core.CacheStats{}}
	addEngine := func(e *core.Engine) {
		for _, ls := range e.LayerCacheStats() {
			s := c.layers[ls.Layer]
			s.Add(ls.CacheStats)
			c.layers[ls.Layer] = s
		}
		c.skips += e.StaleStoreSkips()
		c.cacheB += e.CacheBytes()
	}
	if r := h.srv.Router(); r != nil {
		c.sharded = true
		for _, e := range r.Engines() {
			addEngine(e)
		}
		st := r.Stats()
		if st.Batching != nil {
			c.batch = *st.Batching
		}
		c.hedges, c.routed = st.Hedges, st.RoutedAround
		for _, s := range st.Shards {
			c.legP50 += s.LatencyP50Ms / float64(len(st.Shards))
			if s.LatencyP99Ms > c.legP99 {
				c.legP99 = s.LatencyP99Ms
			}
		}
		if h.tr != nil {
			c.passes = h.tr.passes.Load()
		}
		return c
	}
	addEngine(h.srv.Engine())
	if b := h.srv.Batcher(); b != nil {
		c.batch = b.Stats()
		c.passes = c.batch.Batches
		c.qwMean = b.QueueWait().Mean()
	}
	return c
}

// layerMetrics derives every per-layer metric of a traced phase from
// the client's record p, the counters before and after it, and the
// tracer's timings. Metrics of a layer the workload does not use are 0.
func layerMetrics(h *harness, p *phase, before, after counters, kern map[string]float64) map[string]float64 {
	tr := h.tr
	m := make(map[string]float64)
	for k, v := range kern {
		m[k] = v
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	nReads := len(p.reads)

	// serve: handler time, and the client latency it does not explain.
	var hand, transport []time.Duration
	for i, seq := range p.readSeqs {
		d, ok := tr.handlerTime(seq)
		if !ok {
			continue
		}
		hand = append(hand, d)
		transport = append(transport, p.reads[i]-d)
	}
	m["serve.handler_p50_ms"] = ms(quantile(hand, 0.5))
	m["serve.handler_p99_ms"] = ms(quantile(hand, 0.99))
	m["serve.transport_p50_ms"] = ms(quantile(transport, 0.5))
	ing := append([]time.Duration(nil), p.ingests...)
	m["serve.ingest_p50_ms"] = ms(quantile(ing, 0.5))
	m["serve.ingest_p99_ms"] = ms(quantile(ing, 0.99))

	// batcher.
	db := batcher.Snapshot{
		Enqueued:  after.batch.Enqueued - before.batch.Enqueued,
		Coalesced: after.batch.Coalesced - before.batch.Coalesced,
	}
	passes := after.passes - before.passes
	m["batcher.coalesce_ratio"] = db.CoalesceRatio()
	if nReads > 0 {
		m["batcher.passes_per_read"] = float64(passes) / float64(nReads)
	}
	var passP50 time.Duration
	if after.sharded {
		tr.passMu.Lock()
		pd := append([]time.Duration(nil), tr.passDurs...)
		tr.passMu.Unlock()
		passP50 = quantile(pd, 0.5)
		if passes > 0 {
			m["batcher.occupancy_mean"] = float64(tr.passTgts.Load()) / float64(passes)
		}
		// The per-shard batchers are not reachable from outside the
		// router, so queue wait is estimated as the median shard leg
		// minus the median engine pass.
		if est := after.legP50*1e3 - us(passP50); est > 0 {
			m["batcher.queue_wait_p50_us"] = est
		} else {
			m["batcher.queue_wait_p50_us"] = 0
		}
		if est := after.legP99*1e3 - us(quantile(pd, 0.99)); est > 0 {
			m["batcher.queue_wait_p99_us"] = est
		} else {
			m["batcher.queue_wait_p99_us"] = 0
		}
	} else if b := h.srv.Batcher(); b != nil {
		m["batcher.queue_wait_p50_us"] = us(b.QueueWait().Quantile(0.5))
		m["batcher.queue_wait_p99_us"] = us(b.QueueWait().Quantile(0.99))
		m["batcher.occupancy_mean"] = b.Occupancy().Mean()
	}
	setDefault(m, "batcher.queue_wait_p50_us", "batcher.queue_wait_p99_us", "batcher.occupancy_mean", "batcher.passes_per_read")

	// shard.
	m["shard.leg_p50_ms"] = after.legP50
	m["shard.leg_p99_ms"] = after.legP99
	m["shard.hedges"] = float64(after.hedges - before.hedges)
	m["shard.routed_around"] = float64(after.routed - before.routed)
	m["shard.fanout_mean"] = 0
	if p.fanoutN > 0 {
		m["shard.fanout_mean"] = p.fanoutSum / float64(p.fanoutN)
	}
	m["shard.leg_time_frac"] = 0
	if hp50 := m["serve.handler_p50_ms"]; after.sharded && hp50 > 0 {
		m["shard.leg_time_frac"] = after.legP50 / hp50
	}

	// core: stage costs per top-level target, from the Collector.
	durs := tr.col.Durations()
	perTarget := func(ops ...string) float64 {
		if p.targets == 0 {
			return 0
		}
		var d time.Duration
		for _, op := range ops {
			d += durs[op]
		}
		return us(d) / float64(p.targets)
	}
	m["core.sample_us_per_target"] = perTarget(stats.OpNghLookup)
	m["core.dedup_us_per_target"] = perTarget(stats.OpDedupFilter, stats.OpDedupInvert)
	m["core.cache_lookup_us_per_target"] = perTarget(stats.OpComputeKeys, stats.OpCacheLookup)
	m["core.time_encode_us_per_target"] = perTarget(stats.OpTimeEncZero, stats.OpTimeEncDelta)
	m["core.attention_us_per_target"] = perTarget(stats.OpAttention)
	m["core.cache_store_us_per_target"] = perTarget(stats.OpCacheStore)
	m["core.feat_lookup_us_per_target"] = perTarget(stats.OpFeatLookup)

	ratio := func(num, den int64) float64 {
		if den <= 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	var misses, spillHits, rejected int64
	for l, a := range after.layers {
		b := before.layers[l]
		misses += a.Misses - b.Misses
		spillHits += a.SpillHits - b.SpillHits
		rejected += a.AdmitRejected - b.AdmitRejected
	}
	for l, name := range map[int]string{1: "core.hit_rate.l1", 2: "core.hit_rate.l2"} {
		a, b := after.layers[l], before.layers[l]
		m[name] = ratio(a.Hits-b.Hits, a.Lookups-b.Lookups)
	}
	m["core.spill_hit_rate"] = ratio(spillHits, misses)
	m["core.admit_rejected_frac"] = ratio(rejected, misses)
	m["core.dedup_ratio"] = 0
	if nReads > 0 {
		m["core.dedup_ratio"] = p.dedupSum / float64(nReads)
	}
	m["core.stale_store_skips_per_pass"] = ratio(after.skips-before.skips, passes)
	m["core.invalidated_per_edge"] = ratio(int64(p.inv), int64(p.edges))
	m["core.cache_bytes"] = float64(after.cacheB)

	// graph: outcomes from the /v1/ingest bodies, cost from the handler.
	m["graph.late_frac"] = ratio(int64(p.late), int64(p.edges))
	m["graph.dropped_frac"] = ratio(int64(p.dropped), int64(p.edges))
	tr.mu.Lock()
	ingestT, allT := tr.ingestT, tr.allT
	tr.mu.Unlock()
	m["graph.ingest_us_per_edge"] = 0
	if p.edges > 0 {
		m["graph.ingest_us_per_edge"] = us(ingestT) / float64(p.edges)
	}

	lat := append([]time.Duration(nil), p.lateness...)
	m["loadgen.lateness_p99_ms"] = ms(quantile(lat, 0.99))

	// Handler time the engine stages and the batcher queue do not
	// explain. All targets of a read enter the queue together, so a
	// read waits about the mean per-target queue wait. Concurrent
	// passes can only make this an underestimate.
	explained := tr.col.Total() + time.Duration(nReads)*after.qwMean
	m["trace.unattributed_frac"] = 0
	if allT > 0 {
		f := 1 - float64(explained)/float64(allT)
		if f < 0 {
			f = 0
		}
		m["trace.unattributed_frac"] = f
	}
	return m
}

func setDefault(m map[string]float64, names ...string) {
	for _, n := range names {
		if _, ok := m[n]; !ok {
			m[n] = 0
		}
	}
}
