package core

import (
	"sync"
	"sync/atomic"

	"tgopt/internal/parallel"
	"tgopt/internal/tensor"
)

// cacheEntryOverhead approximates the per-item bookkeeping bytes beyond
// the embedding payload: the 8-byte key in the map and FIFO ring, the
// slice header, and amortized map bucket space. Used by UsedBytes so the
// reported footprint matches what the paper's Table 3/4 "used cache
// size" measures (their 100,007 × 100-float items report 46.5 MiB ≈
// payload × 1.16).
const cacheEntryOverhead = 64

// EntriesForBudget converts a byte budget into a hot-tier item limit
// for dim-wide float32 entries — the vector payload plus per-item
// bookkeeping, the same accounting UsedBytes reports. Always at least 1.
func EntriesForBudget(budget int64, dim int) int {
	return EntriesForBudgetQuant(budget, dim, false)
}

// EntriesForBudgetQuant is EntriesForBudget for either entry format.
// Int8 entries are roughly 4× smaller, so the same byte budget admits
// roughly 4× the items — the capacity half of the quantization win
// (BENCH_4's hit-rate-at-budget section measures it).
func EntriesForBudgetQuant(budget int64, dim int, quant bool) int {
	n := int(budget / int64(entryCodec{dim: dim, quant: quant}.entryBytes()))
	if n < 1 {
		n = 1
	}
	return n
}

// CacheSplitPolicy selects how a total cache budget (item limit and
// spill bytes) divides across per-layer caches when a deep model
// caches more than one layer.
type CacheSplitPolicy int

const (
	// CacheSplitWeighted (the default) gives layer l a share
	// proportional to k^(top−l): every layer-(l+1) miss fans out into
	// k layer-l lookups, so lower layers see roughly k× the traffic of
	// the layer above and deserve a proportionally larger share of the
	// budget. Dedup and deep hits pull the real ratio below k, but the
	// geometric shape is right and measurably beats the flat split on
	// deep-model hit rate (BENCH_5).
	CacheSplitWeighted CacheSplitPolicy = iota
	// CacheSplitEven restores the flat split: every cached layer gets
	// total/cached — the pre-weighting behavior, kept as an escape
	// hatch for workloads whose reuse concentrates in the deep layers.
	CacheSplitEven
)

// splitWeights returns the relative budget weights for cached layers
// 1..top under the policy (index 0 unused). Weights are floats so a
// large k at depth cannot overflow.
func splitWeights(k, top int, policy CacheSplitPolicy) []float64 {
	w := make([]float64, top+1)
	for l := 1; l <= top; l++ {
		if policy == CacheSplitEven || k < 2 {
			w[l] = 1
			continue
		}
		w[l] = 1
		for i := 0; i < top-l; i++ {
			w[l] *= float64(k)
		}
	}
	return w
}

// SplitCacheLimit divides a total item limit across cached layers
// 1..top (index 0 unused); every cached layer gets at least 1.
func SplitCacheLimit(total, k, top int, policy CacheSplitPolicy) []int {
	w := splitWeights(k, top, policy)
	sum := 0.0
	for _, x := range w {
		sum += x
	}
	per := make([]int, top+1)
	for l := 1; l <= top; l++ {
		per[l] = int(float64(total) * w[l] / sum)
		if per[l] < 1 {
			per[l] = 1
		}
	}
	return per
}

// SplitCacheBudget is SplitCacheLimit for byte budgets (the spill
// tier); a non-positive total stays 0 (unbounded) for every layer.
func SplitCacheBudget(total int64, k, top int, policy CacheSplitPolicy) []int64 {
	per := make([]int64, top+1)
	if total <= 0 {
		return per
	}
	w := splitWeights(k, top, policy)
	sum := 0.0
	for _, x := range w {
		sum += x
	}
	for l := 1; l <= top; l++ {
		per[l] = int64(float64(total) * w[l] / sum)
		if per[l] < 1 {
			per[l] = 1
		}
	}
	return per
}

// Add accumulates o's counters into s — the shared merge used by the
// engine's cross-layer aggregate and the shard router's cross-shard
// aggregate.
func (s *CacheStats) Add(o CacheStats) {
	s.Lookups += o.Lookups
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.SpillHits += o.SpillHits
	s.Promotes += o.Promotes
	s.PromoteDrops += o.PromoteDrops
	s.AdmitRejected += o.AdmitRejected
	s.Spill.Entries += o.Spill.Entries
	s.Spill.Segments += o.Spill.Segments
	s.Spill.Bytes += o.Spill.Bytes
	s.Spill.Hits += o.Spill.Hits
	s.Spill.Puts += o.Spill.Puts
	s.Spill.SealErrors += o.Spill.SealErrors
	s.Spill.CorruptRecords += o.Spill.CorruptRecords
	s.Spill.CorruptSegments += o.Spill.CorruptSegments
	s.Spill.DroppedSegments += o.Spill.DroppedSegments
	s.Spill.Compactions += o.Spill.Compactions
}

// CachePolicy selects the hot-tier admission/eviction policy.
type CachePolicy int

const (
	// CacheTinyLFU keeps a 4-bit count-min sketch of key frequencies
	// per shard and admits a new entry only when its estimated
	// frequency beats the would-be FIFO victim's. Under skewed reuse
	// (the JODIE-style repeat-consumption of production traffic) this
	// keeps heavy hitters resident where plain FIFO churns them out.
	// The zero value: new engines get TinyLFU unless they opt out.
	CacheTinyLFU CachePolicy = iota
	// CacheFIFO is the original paper policy (§4.2.2): evict strictly
	// oldest-first, admit everything.
	CacheFIFO
)

// CacheConfig configures a memo cache tier stack.
type CacheConfig struct {
	// Limit is the maximum hot-tier item count (required, >= 1).
	Limit int
	// Dim is the embedding width (required, >= 1).
	Dim int
	// Shards is the concurrency sharding degree (<= 0 picks 16;
	// rounded to a power of two and shrunk so each shard holds >= 1).
	Shards int
	// Policy picks the hot-tier eviction policy (default CacheTinyLFU).
	Policy CachePolicy
	// Spill, when set, is the cold tier: entries evicted from (or
	// refused admission to) the hot tier are appended there, hot-tier
	// misses fall through to it, and spill hits are asynchronously
	// promoted back. The cache takes ownership — Cache.Close seals it.
	// Its dim and quant mode must match the cache's.
	Spill *SpillStore
	// Quant stores entries int8-quantized (scale + codes, ~4× smaller)
	// instead of float32. See QuantInt8.
	Quant bool
}

// CacheStats is a point-in-time snapshot of the cache's counters. The
// hot-tier counts are exact: they are taken under the same per-shard
// locks that guard the lookups and stores they count, so
// Lookups == Hits + Misses always holds. SpillHits (spill-tier hits
// among hot-tier misses) never exceeds Misses: every spill hit's miss
// is counted before the spillHits increment, and Stats reads the
// spillHits atomic before sweeping the shards, so the skew between the
// two reads is one-sided.
type CacheStats struct {
	Lookups       int64      `json:"lookups"`
	Hits          int64      `json:"hits"`
	Misses        int64      `json:"misses"`
	SpillHits     int64      `json:"spill_hits"`
	Promotes      int64      `json:"promotes"`
	PromoteDrops  int64      `json:"promote_drops"`
	AdmitRejected int64      `json:"admit_rejected"`
	Spill         SpillStats `json:"spill"`
}

// Cache is the embedding memoization cache of §4.2, grown into a
// two-tier store: a sharded concurrent hash table from 64-bit
// ⟨node, t⟩ keys to embedding vectors (the hot tier, with a global
// item limit enforced per shard under either FIFO or TinyLFU
// admission), optionally backed by an on-disk SpillStore (the cold
// tier) that receives evicted entries and serves hot-tier misses, with
// async promote-on-hit. Sharding keeps Store and Lookup
// parallelizable, mirroring the concurrent hash table of the C++
// implementation.
type Cache struct {
	dim    int
	codec  entryCodec
	shards []cacheShard
	mask   uint64
	limit  int
	policy CachePolicy
	spill  *SpillStore

	// gen invalidation fence: bumped by Remove/Clear before entries
	// leave the tiers, checked by the promote worker under the shard
	// lock, so a promotion raced by an invalidation can never
	// resurrect a removed entry.
	gen atomic.Uint64

	spillHits    atomic.Int64
	promotes     atomic.Int64
	promoteDrops atomic.Int64

	promoteCh chan promoteReq
	// promoteMu is held by the promote worker from a promotion's hot
	// insert until its evicted victim lands in the spill tier. Keys
	// takes it too, so a background promotion never leaves an entry
	// between the tiers while Keys scans them.
	promoteMu sync.Mutex
	stop      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
}

type promoteReq struct {
	key uint64
	vec []float32
	gen uint64
}

type cacheShard struct {
	mu    sync.Mutex
	limit int               // this shard's slice of the global limit; Σ limits == Cache.limit
	m     map[uint64][]byte // entryCodec payloads
	fifo  []uint64          // insertion order; head compacts lazily
	head  int
	// dead counts FIFO occurrences orphaned by Remove: re-storing a
	// removed key appends a fresh occurrence, so the old one must be
	// skipped by eviction — not treated as the key's position — or a
	// remove→restore→evict sequence would evict the freshly stored
	// entry (it looks "oldest" through its stale occurrence).
	dead  map[uint64]int
	ndead int
	// sketch is the TinyLFU admission filter (nil under CacheFIFO).
	sketch *freqSketch
	// Hot-tier lookup counters, mutated only under mu so they stay
	// exact with respect to the lookups they count.
	hits          int64
	misses        int64
	admitRejected int64
}

// NewCache creates a FIFO cache for dim-wide embeddings holding at most
// limit items across the given number of shards (rounded up to a power
// of two; <=0 picks a default of 16). It preserves the original paper
// policy exactly — callers wanting TinyLFU admission or the disk tier
// use NewCacheWith. The global limit is enforced exactly: it is
// distributed across the shards — remainder items to the lowest shard
// indices — so the per-shard FIFO limits sum to limit and Len() can
// never settle above Limit(). When limit < shards, the shard count
// shrinks so every shard can hold at least one entry.
func NewCache(limit, dim, shards int) *Cache {
	return NewCacheWith(CacheConfig{Limit: limit, Dim: dim, Shards: shards, Policy: CacheFIFO})
}

// NewCacheWith creates a cache from a full tier configuration.
func NewCacheWith(cfg CacheConfig) *Cache {
	if cfg.Limit < 1 {
		panic("core: cache limit must be >= 1")
	}
	if cfg.Dim < 1 {
		panic("core: cache dim must be >= 1")
	}
	if cfg.Spill != nil && cfg.Spill.codec != (entryCodec{dim: cfg.Dim, quant: cfg.Quant}) {
		panic("core: cache spill dim/quant mismatch")
	}
	shards := cfg.Shards
	if shards <= 0 {
		shards = 16
	}
	ns := 1
	for ns < shards {
		ns *= 2
	}
	for ns > 1 && cfg.Limit < ns {
		ns /= 2
	}
	c := &Cache{
		dim:    cfg.Dim,
		codec:  entryCodec{dim: cfg.Dim, quant: cfg.Quant},
		shards: make([]cacheShard, ns),
		mask:   uint64(ns - 1),
		limit:  cfg.Limit,
		policy: cfg.Policy,
		spill:  cfg.Spill,
	}
	base, rem := cfg.Limit/ns, cfg.Limit%ns
	for i := range c.shards {
		s := &c.shards[i]
		s.m = make(map[uint64][]byte)
		s.limit = base
		if i < rem {
			s.limit++
		}
		if cfg.Policy == CacheTinyLFU {
			s.sketch = newFreqSketch(s.limit)
		}
	}
	if c.spill != nil {
		c.promoteCh = make(chan promoteReq, 256)
		c.stop = make(chan struct{})
		c.wg.Add(1)
		go c.promoteLoop()
	}
	return c
}

// shardFor mixes the key before selecting a shard so that the node-id
// high bits do not bias the distribution.
func (c *Cache) shardFor(key uint64) *cacheShard {
	h := key
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	return &c.shards[h&c.mask]
}

// Dim returns the embedding width.
func (c *Cache) Dim() int { return c.dim }

// Limit returns the configured maximum hot-tier item count.
func (c *Cache) Limit() int { return c.limit }

// Policy returns the hot-tier eviction policy.
func (c *Cache) Policy() CachePolicy { return c.policy }

// Quant reports whether entries are stored int8-quantized.
func (c *Cache) Quant() bool { return c.codec.quant }

// SpillStore returns the cold tier, or nil.
func (c *Cache) SpillStore() *SpillStore { return c.spill }

// Len returns the current hot-tier item count across all shards.
func (c *Cache) Len() int {
	total := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		total += len(s.m)
		s.mu.Unlock()
	}
	return total
}

// UsedBytes estimates the resident (hot-tier) footprint of the cached
// embeddings, payload plus bookkeeping overhead. The cold tier's
// on-disk bytes are reported separately via Stats().Spill.Bytes.
func (c *Cache) UsedBytes() int64 {
	return int64(c.Len()) * int64(c.codec.entryBytes())
}

// Stats snapshots the cache counters (see CacheStats for the exactness
// guarantees).
func (c *Cache) Stats() CacheStats {
	var st CacheStats
	// The spillHits atomic is read before the shard sweep: a spill hit's
	// miss is counted (under its shard lock) before spillHits is bumped,
	// so loading spillHits first guarantees every counted spill hit's
	// miss makes the snapshot — SpillHits <= Misses holds.
	st.SpillHits = c.spillHits.Load()
	st.Promotes = c.promotes.Load()
	st.PromoteDrops = c.promoteDrops.Load()
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Hits += s.hits
		st.Misses += s.misses
		st.AdmitRejected += s.admitRejected
		s.mu.Unlock()
	}
	st.Lookups = st.Hits + st.Misses
	if c.spill != nil {
		st.Spill = c.spill.Stats()
	}
	return st
}

// cacheParallelThreshold is the batch size above which Lookup and Store
// fan out across shards-independent chunks.
const cacheParallelThreshold = 2048

// Lookup searches for every key and copies each hit's embedding into the
// corresponding row of dst (shape (len(keys), dim)), leaving miss rows
// untouched. It returns a hit mask and the hit count. The loop
// parallelizes for large batches; distinct keys never contend on the
// same row.
func (c *Cache) Lookup(keys []uint64, dst *tensor.Tensor) ([]bool, int) {
	hits := make([]bool, len(keys))
	n := c.LookupInto(keys, dst, hits)
	return hits, n
}

// LookupInto is Lookup writing the hit mask into a caller-supplied
// slice of length len(keys). Every mask element is written (callers may
// pass dirty arena scratch). Returns the hit count. Hot-tier misses
// fall through to the spill tier when one is configured; a spill hit
// counts toward the returned total (it is a memo hit — the recompute
// is avoided) and queues an async promotion back into the hot tier.
func (c *Cache) LookupInto(keys []uint64, dst *tensor.Tensor, hits []bool) int {
	if dst.Dim(0) != len(keys) || dst.Dim(1) != c.dim {
		panic("core: cache Lookup dst shape mismatch")
	}
	if len(hits) != len(keys) {
		panic("core: cache Lookup hits length mismatch")
	}
	data := dst.Data()
	n := c.lookupPass(keys, data, hits, false)
	if c.spill != nil && n < len(keys) {
		// The spill pass starts only after the whole batch has probed the
		// hot tier: a promote-on-hit queued earlier could otherwise evict
		// a hot entry this batch has yet to probe, demoting the batch's
		// own hits and making the tier stats depend on timing.
		n += c.lookupPass(keys, data, hits, true)
	}
	return n
}

// lookupPass runs one lookup pass over every key — the hot probe, or
// with spill set the cold probe of the hot misses — fanned out across
// chunks for large batches, and returns the hits it found.
func (c *Cache) lookupPass(keys []uint64, data []float32, hits []bool, spill bool) int {
	// The closure is built only on the fan-out branch so the serial path
	// stays allocation-free.
	if len(keys) >= cacheParallelThreshold && parallel.Degree() > 1 {
		var nhits atomic.Int64
		parallel.ForChunked(len(keys), 0, func(lo, hi int) {
			nhits.Add(int64(c.probe(keys, data, hits, lo, hi, spill)))
		})
		return int(nhits.Load())
	}
	return c.probe(keys, data, hits, 0, len(keys), spill)
}

// probe runs one chunk of a lookup pass.
func (c *Cache) probe(keys []uint64, data []float32, hits []bool, lo, hi int, spill bool) int {
	if spill {
		return c.probeSpill(keys, data, hits, lo, hi)
	}
	return c.probeHot(keys, data, hits, lo, hi)
}

// probeHot looks up keys [lo,hi) in the hot tier, writing every mask
// element and returning the local hit count. Hit/miss counters are
// bumped under the shard lock.
func (c *Cache) probeHot(keys []uint64, data []float32, hits []bool, lo, hi int) int {
	local := 0
	for i := lo; i < hi; i++ {
		key := keys[i]
		s := c.shardFor(key)
		s.mu.Lock()
		if s.sketch != nil {
			s.sketch.inc(key)
		}
		v, ok := s.m[key]
		if ok {
			c.codec.decode(v, data[i*c.dim:(i+1)*c.dim])
			s.hits++
		} else {
			s.misses++
		}
		s.mu.Unlock()
		hits[i] = ok
		if ok {
			local++
		}
	}
	return local
}

// probeSpill looks up the hot misses among keys [lo,hi) in the spill
// tier, outside any shard lock (disk I/O never blocks a shard), and
// queues a promotion for each spill hit. It returns the local spill
// hit count.
func (c *Cache) probeSpill(keys []uint64, data []float32, hits []bool, lo, hi int) int {
	local := 0
	for i := lo; i < hi; i++ {
		if hits[i] {
			continue
		}
		// The fence generation is captured BEFORE the spill read: an
		// invalidation (Remove/Clear) that completes anywhere between
		// this load and the promote worker's re-check bumps gen, so the
		// promotion is dropped instead of resurrecting the entry.
		gen := c.gen.Load()
		row := data[i*c.dim : (i+1)*c.dim]
		if c.spill.Get(keys[i], row) {
			hits[i] = true
			local++
			c.spillHits.Add(1)
			c.maybePromote(keys[i], row, gen)
		}
	}
	return local
}

// maybePromote queues an async promotion of a spill hit back into the
// hot tier. gen is the fence generation the caller loaded before its
// spill read (not loaded here — by now an invalidation may already have
// completed, and a post-invalidation generation would pass the fence
// and resurrect the removed entry). The channel send never blocks the
// serving path: a full queue just drops the promotion (the entry stays
// served from the cold tier).
func (c *Cache) maybePromote(key uint64, vec []float32, gen uint64) {
	if c.promoteCh == nil {
		return
	}
	v := make([]float32, len(vec))
	copy(v, vec)
	select {
	case c.promoteCh <- promoteReq{key: key, vec: v, gen: gen}:
	default:
		c.promoteDrops.Add(1)
	}
}

// promoteLoop is the cold→hot promotion worker.
func (c *Cache) promoteLoop() {
	defer c.wg.Done()
	for {
		select {
		case <-c.stop:
			return
		case req := <-c.promoteCh:
			c.promoteOne(req)
		}
	}
}

// promoteOne re-inserts a spill hit into the hot tier. The generation
// fence is re-checked under the shard lock: if any invalidation ran
// since the spill read, the promotion is dropped — a removed entry is
// never resurrected. An admission-rejected promotion is simply left in
// the cold tier (it is already there; no re-spill churn).
func (c *Cache) promoteOne(req promoteReq) {
	c.promoteMu.Lock()
	defer c.promoteMu.Unlock()
	s := c.shardFor(req.key)
	s.mu.Lock()
	if c.gen.Load() != req.gen {
		s.mu.Unlock()
		c.promoteDrops.Add(1)
		return
	}
	victimKey, victimPayload, admitted := c.insertLocked(s, req.key, req.vec)
	s.mu.Unlock()
	if !admitted {
		c.promoteDrops.Add(1)
		return
	}
	c.promotes.Add(1)
	if victimPayload != nil && c.spill != nil {
		c.spill.putPayload(victimKey, victimPayload)
	}
}

// Store inserts each (key, row of h) pair, evicting the oldest entries
// of overfull shards — subject to TinyLFU admission when that policy is
// active. Rows are copied; h may be reused by the caller. Storing an
// existing key refreshes its value without re-queueing it. Evicted and
// admission-rejected entries cascade into the spill tier when one is
// configured.
func (c *Cache) Store(keys []uint64, h *tensor.Tensor) {
	if h.Dim(0) != len(keys) || h.Dim(1) != c.dim {
		panic("core: cache Store shape mismatch")
	}
	data := h.Data()
	if len(keys) >= cacheParallelThreshold && parallel.Degree() > 1 {
		parallel.ForChunked(len(keys), 0, func(lo, hi int) { c.storeRange(keys, data, lo, hi) })
		return
	}
	c.storeRange(keys, data, 0, len(keys))
}

func (c *Cache) storeRange(keys []uint64, data []float32, lo, hi int) {
	for i := lo; i < hi; i++ {
		c.storeOne(keys[i], data[i*c.dim:(i+1)*c.dim])
	}
}

// storeOne inserts a single entry under the shard's slice of the global
// limit, so the global hot-tier item count never settles above
// Limit(). vec is copied. The displaced entry — the evicted victim, or
// the candidate itself when admission refuses it — is spilled to the
// cold tier after the shard lock is released (spill segment I/O never
// runs under a shard lock).
func (c *Cache) storeOne(key uint64, vec []float32) {
	s := c.shardFor(key)
	s.mu.Lock()
	victimKey, victimPayload, admitted := c.insertLocked(s, key, vec)
	s.mu.Unlock()
	if c.spill == nil {
		return
	}
	if !admitted {
		c.spill.Put(key, vec)
	} else if victimPayload != nil {
		// The evicted payload moves to the cold tier byte-for-byte: the
		// tiers share the entry codec, so no re-encode (and for int8, no
		// second quantization) happens on the demotion path.
		c.spill.putPayload(victimKey, victimPayload)
	}
}

// insertLocked is the single hot-tier insertion point (caller holds
// s.mu). It refreshes existing keys in place, applies TinyLFU
// admission against the would-be victim when the shard is full, and
// returns the displaced victim (nil if none) plus whether key was
// admitted. Frequency is recorded by lookups only (probeHot incs
// the sketch); counting here too would double-count every miss+store
// access, and a bulk load of never-looked-up keys would age resident
// heavy hitters out of the sketch without a single real access.
func (c *Cache) insertLocked(s *cacheShard, key uint64, vec []float32) (victimKey uint64, victimPayload []byte, admitted bool) {
	if old, ok := s.m[key]; ok {
		c.codec.encode(vec, old)
		return 0, nil, true
	}
	if len(s.m) >= s.limit {
		if s.sketch != nil {
			if victim, ok := s.oldestLocked(); ok && s.sketch.estimate(key) <= s.sketch.estimate(victim) {
				s.admitRejected++
				return 0, nil, false
			}
		}
		victimKey, victimPayload = s.evictOldestLocked()
	}
	v := make([]byte, c.codec.payloadSize())
	c.codec.encode(vec, v)
	s.m[key] = v
	s.fifo = append(s.fifo, key)
	return victimKey, victimPayload, true
}

// oldestLocked peeks at the shard's oldest live entry — the eviction
// victim TinyLFU admission compares against — advancing the head past
// dead and ghost occurrences without consuming the live one.
func (s *cacheShard) oldestLocked() (uint64, bool) {
	for s.head < len(s.fifo) {
		key := s.fifo[s.head]
		if n := s.dead[key]; n > 0 {
			s.markPoppedLocked(key, n)
			s.head++
			continue
		}
		if _, ok := s.m[key]; !ok {
			s.head++
			continue
		}
		return key, true
	}
	return 0, false
}

// evictOldestLocked removes the oldest live entry of the shard,
// skipping dead occurrences left behind by Remove (consuming their
// dead marks) and any key already gone from the map; the head region
// compacts once it grows past half the queue. It returns the evicted
// entry (the cache-owned vector, safe to hand to the spill tier) or ok
// = false when the shard held nothing live.
func (s *cacheShard) evictOldestLocked() (key uint64, payload []byte) {
	for s.head < len(s.fifo) {
		k := s.fifo[s.head]
		s.head++
		if n := s.dead[k]; n > 0 {
			s.markPoppedLocked(k, n)
			continue
		}
		if v, ok := s.m[k]; ok {
			delete(s.m, k)
			key, payload = k, v
			break
		}
	}
	if s.head > len(s.fifo)/2 && s.head > 1024 {
		s.fifo = append(s.fifo[:0], s.fifo[s.head:]...)
		s.head = 0
	}
	return key, payload
}

// markPoppedLocked consumes one dead mark for a key whose stale FIFO
// occurrence was just popped or compacted away.
func (s *cacheShard) markPoppedLocked(key uint64, n int) {
	if n <= 1 {
		delete(s.dead, key)
	} else {
		s.dead[key] = n - 1
	}
	s.ndead--
}

// removeLocked deletes one key, marking its FIFO occurrence dead so a
// later re-store of the same key cannot be mistaken for the old
// occurrence, then compacts the queue if dead occurrences dominate —
// an invalidation storm must not grow the FIFO without bound.
func (s *cacheShard) removeLocked(key uint64) bool {
	if _, ok := s.m[key]; !ok {
		return false
	}
	delete(s.m, key)
	if s.dead == nil {
		s.dead = make(map[uint64]int)
	}
	s.dead[key]++
	s.ndead++
	if s.ndead > 64 && s.ndead > (len(s.fifo)-s.head)/2 {
		s.compactLocked()
	}
	return true
}

// compactLocked rewrites the FIFO without its dead occurrences (and
// the consumed head region), preserving order.
func (s *cacheShard) compactLocked() {
	live := s.fifo[s.head:]
	w := 0
	for _, key := range live {
		if n := s.dead[key]; n > 0 {
			s.markPoppedLocked(key, n)
			continue
		}
		live[w] = key
		w++
	}
	n := copy(s.fifo, live[:w])
	s.fifo = s.fifo[:n]
	s.head = 0
}

// Remove deletes the given keys from both tiers if present and returns
// how many were actually removed (present in at least one tier).
// Removed keys' FIFO occurrences are marked dead (and compacted away
// under churn) so eviction order stays correct if the same keys are
// stored again. The generation fence is bumped first, so in-flight
// promotions of the removed keys are dropped rather than applied.
func (c *Cache) Remove(keys []uint64) int {
	if len(keys) == 0 {
		return 0
	}
	if c.spill != nil {
		c.gen.Add(1)
	}
	removed := 0
	for _, key := range keys {
		s := c.shardFor(key)
		s.mu.Lock()
		ok := s.removeLocked(key)
		s.mu.Unlock()
		if c.spill != nil && c.spill.Remove(key) {
			ok = true
		}
		if ok {
			removed++
		}
	}
	return removed
}

// Clear drops every entry from both tiers (and resets the TinyLFU
// frequency sketches; counters are cumulative and keep counting).
func (c *Cache) Clear() {
	if c.spill != nil {
		c.gen.Add(1)
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.m = make(map[uint64][]byte)
		s.fifo = nil
		s.head = 0
		s.dead = nil
		s.ndead = 0
		if s.sketch != nil {
			s.sketch = newFreqSketch(s.limit)
		}
		s.mu.Unlock()
	}
	if c.spill != nil {
		c.spill.Clear()
	}
}

// SetModelVersion drops every entry from both tiers and stamps the
// spill tier so segments written from now on carry the new model
// version — the invalidation event of a parameter hot-swap. The
// generation fence is bumped by Clear before any entry leaves, so
// in-flight promote-on-hit enqueues of pre-swap entries are dropped
// at the worker's re-check instead of resurrecting old-model rows.
func (c *Cache) SetModelVersion(v uint64) {
	c.Clear()
	if c.spill != nil {
		c.spill.SetModelVersion(v)
	}
}

// Keys returns every resident key across both tiers (no particular
// order, each key once). Used to rebuild derived indexes after a
// snapshot load.
func (c *Cache) Keys() []uint64 {
	c.promoteMu.Lock()
	defer c.promoteMu.Unlock()
	out := make([]uint64, 0, c.Len())
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for key := range s.m {
			out = append(out, key)
		}
		s.mu.Unlock()
	}
	if c.spill != nil {
		seen := make(map[uint64]struct{}, len(out))
		for _, k := range out {
			seen[k] = struct{}{}
		}
		for _, k := range c.spill.Keys() {
			if _, dup := seen[k]; !dup {
				out = append(out, k)
			}
		}
	}
	return out
}

// Contains reports whether key is resident in either tier. The target
// index uses this as its alive probe, so invalidation reaches spilled
// entries too.
func (c *Cache) Contains(key uint64) bool {
	s := c.shardFor(key)
	s.mu.Lock()
	_, ok := s.m[key]
	s.mu.Unlock()
	if !ok && c.spill != nil {
		ok = c.spill.Contains(key)
	}
	return ok
}

// Close stops the promotion worker and seals the spill tier's open
// segment so spilled entries survive a restart. Safe to call more than
// once; a nil-spill cache's Close is a no-op.
func (c *Cache) Close() error {
	var err error
	c.closeOnce.Do(func() {
		if c.stop != nil {
			close(c.stop)
			c.wg.Wait()
		}
		if c.spill != nil {
			err = c.spill.Close()
		}
	})
	return err
}
