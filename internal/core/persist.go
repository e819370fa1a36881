package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"tgopt/internal/checkpoint"
)

// Cache persistence: a production deployment restarting its serving
// process would otherwise pay the full warm-up cost again (Figure 7
// shows hit rates take a while to climb).
//
// A cache blob is little-endian. The current (v2) layout snapshots one
// shard at a time, each section's count taken under that shard's lock
// while its entries are serialized, so concurrent stores and evictions
// can never make a header disagree with the entries actually written:
//
//	magic    uint32 = 0x32434754 ("TGC2") | 0x31514754 ("TGQ1")
//	dim      uint32
//	sections repeated { count uint32, count × { key uint64, payload } }
//	end      uint32 = 0xFFFFFFFF
//
// The entry payload is the shared entry codec's format: [dim]float32
// under TGC2, or {scale float32, [dim]int8} under TGQ1 (an
// int8-quantized cache, ~4× smaller on disk). The magic states the
// precision, so a float32 cache refuses a TGQ1 blob — and vice versa —
// with a clear error instead of misreading the bytes.
//
// Blobs in older layouts (the v1 "TGCC" global-count layout) are
// refused: a cache that cannot load its snapshot starts cold, which is
// always correct.
//
// Engine snapshots wrap the per-layer blobs in a checkpoint envelope
// (internal/checkpoint): CRC32-checksummed and atomically replaced, so
// a crash mid-save preserves the previous snapshot and corruption is
// detected before any entry reaches a live cache.

const (
	cacheMagicV2 uint32 = 0x32434754 // "TGC2": per-shard sections
	cacheMagicQ1 uint32 = 0x31514754 // "TGQ1": per-shard sections, int8 payloads
	// cacheSectionEnd terminates the v2 section list. Section counts
	// are bounded by the cache limit, far below this sentinel.
	cacheSectionEnd uint32 = 0xFFFFFFFF

	// cacheSnapshotVersion is the engine snapshot's envelope version.
	// Version 3 prefixed the layer stream with the model version the
	// entries were computed under; older versions are refused.
	cacheSnapshotVersion uint32 = 3
)

// WriteTo serializes every cached entry as a v2 blob. Each shard's
// entries are staged and counted under the shard lock, then streamed
// out, so a snapshot taken concurrently with stores and evictions is
// always internally consistent (it captures each shard at one instant,
// and the whole cache at slightly staggered instants — the usual
// warm-cache tradeoff, like FIFO age, which survives a restart only
// approximately).
func (c *Cache) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	put32 := func(v uint32) error {
		var buf [4]byte
		binary.LittleEndian.PutUint32(buf[:], v)
		k, err := bw.Write(buf[:])
		n += int64(k)
		return err
	}
	magic := cacheMagicV2
	if c.codec.quant {
		magic = cacheMagicQ1
	}
	if err := put32(magic); err != nil {
		return n, err
	}
	if err := put32(uint32(c.dim)); err != nil {
		return n, err
	}
	var scratch bytes.Buffer
	rec := make([]byte, 8+c.codec.payloadSize())
	for i := range c.shards {
		s := &c.shards[i]
		scratch.Reset()
		count := uint32(0)
		s.mu.Lock()
		// Write in FIFO order so ages are approximately preserved. The
		// stored payload IS the serialized form — both precisions.
		for _, key := range s.fifo[s.head:] {
			v, ok := s.m[key]
			if !ok {
				continue
			}
			binary.LittleEndian.PutUint64(rec, key)
			copy(rec[8:], v)
			scratch.Write(rec)
			count++
		}
		s.mu.Unlock()
		if count == 0 {
			continue
		}
		if err := put32(count); err != nil {
			return n, err
		}
		k, err := bw.Write(scratch.Bytes())
		n += int64(k)
		if err != nil {
			return n, err
		}
	}
	if err := put32(cacheSectionEnd); err != nil {
		return n, err
	}
	return n, bw.Flush()
}

// ReadFrom loads entries written by WriteTo (either precision) into
// the cache on top of any existing contents, evicting per the usual
// FIFO policy if the limit is exceeded. The stored dimension must
// match. The load is all-or-nothing: the stream is fully parsed into a
// staging area first, so a mid-stream error leaves the cache exactly
// as it was.
func (c *Cache) ReadFrom(r io.Reader) (int64, error) {
	br := bufio.NewReader(r)
	var n int64
	get32 := func() (uint32, error) {
		var buf [4]byte
		k, err := io.ReadFull(br, buf[:])
		n += int64(k)
		return binary.LittleEndian.Uint32(buf[:]), err
	}
	magic, err := get32()
	if err != nil {
		return n, err
	}
	switch magic {
	case cacheMagicV2:
		if c.codec.quant {
			return n, fmt.Errorf("core: cache snapshot is float32, cache runs int8-quantized — re-warm instead of loading across precisions")
		}
	case cacheMagicQ1:
		if !c.codec.quant {
			return n, fmt.Errorf("core: cache snapshot is int8-quantized, cache runs float32 — re-warm instead of loading across precisions")
		}
	default:
		return n, fmt.Errorf("core: bad cache magic %#x", magic)
	}
	dim, err := get32()
	if err != nil {
		return n, err
	}
	if int(dim) != c.dim {
		return n, fmt.Errorf("core: cached dim %d, cache expects %d", dim, c.dim)
	}

	// Stage every entry before touching the live shards. Capacities
	// grow by append: a hostile count in a truncated stream must not
	// drive a huge allocation.
	var keys []uint64
	var payloads []byte
	ps := c.codec.payloadSize()
	rec := make([]byte, 8+ps)
	for {
		count, err := get32()
		if err != nil {
			return n, fmt.Errorf("core: cache section header: %w", err)
		}
		if count == cacheSectionEnd {
			break
		}
		for i := uint32(0); i < count; i++ {
			k, err := io.ReadFull(br, rec)
			n += int64(k)
			if err != nil {
				return n, fmt.Errorf("core: cache entry %d: %w", len(keys), err)
			}
			keys = append(keys, binary.LittleEndian.Uint64(rec))
			payloads = append(payloads, rec[8:]...)
		}
	}

	// Commit: the stream parsed cleanly; only now do entries enter the
	// live cache. Payloads re-enter through the decoded path so TinyLFU
	// admission and spill cascades behave exactly like live stores.
	vec := make([]float32, c.dim)
	for i, key := range keys {
		c.codec.decode(payloads[i*ps:(i+1)*ps], vec)
		c.storeOne(key, vec)
	}
	return n, nil
}

// cloneEmpty returns a cache with identical geometry (limit, dim,
// shard count) and no entries — a staging target for all-or-nothing
// loads.
func (c *Cache) cloneEmpty() *Cache {
	return NewCacheWith(CacheConfig{
		Limit:  c.limit,
		Dim:    c.dim,
		Shards: len(c.shards),
		Policy: CacheFIFO,
		Quant:  c.codec.quant,
	})
}

// absorb merges every entry of other into c in other's FIFO order,
// under c's usual limit semantics. other must have the same dim and
// precision and is expected to be a private staging cache (it is read
// without locking).
func (c *Cache) absorb(other *Cache) {
	vec := make([]float32, c.dim)
	for i := range other.shards {
		s := &other.shards[i]
		for _, key := range s.fifo[s.head:] {
			if v, ok := s.m[key]; ok {
				c.codec.decode(v, vec)
				c.storeOne(key, vec)
			}
		}
	}
}

// SaveCaches persists the engine's per-layer caches to path as an
// atomic, checksummed snapshot: the write goes to path.tmp and is
// fsynced and renamed into place, so a crash mid-save leaves the
// previous snapshot intact.
func (e *Engine) SaveCaches(path string) error {
	return e.SaveCachesFS(checkpoint.OS{}, path)
}

// SaveCachesFS is SaveCaches over an injectable file system (fault
// tests drive it through internal/faultfs).
func (e *Engine) SaveCachesFS(fsys checkpoint.FS, path string) error {
	if e.caches == nil {
		return fmt.Errorf("core: engine has no caches to save")
	}
	// The save runs under the swap barrier's read side so the model
	// version it stamps is the version every serialized entry was
	// computed under — a swap cannot land between the stamp and the
	// blobs.
	e.swapGate.RLock()
	defer e.swapGate.RUnlock()
	return checkpoint.WriteFS(fsys, path, cacheSnapshotVersion, func(w io.Writer) error {
		// Payload: model version, number of cached layers, then
		// (layer, blob) pairs.
		var mv [8]byte
		binary.LittleEndian.PutUint64(mv[:], e.version.Load())
		if _, err := w.Write(mv[:]); err != nil {
			return err
		}
		// Number of cached layers, then (layer, blob) pairs.
		var live []int
		for l, c := range e.caches {
			if c != nil {
				live = append(live, l)
			}
		}
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], uint32(len(live)))
		if _, err := w.Write(hdr[:]); err != nil {
			return err
		}
		for _, l := range live {
			binary.LittleEndian.PutUint32(hdr[:], uint32(l))
			if _, err := w.Write(hdr[:]); err != nil {
				return err
			}
			if _, err := e.caches[l].WriteTo(w); err != nil {
				return err
			}
		}
		return nil
	})
}

// LoadCaches restores caches saved by SaveCaches. The engine's
// architecture (cached layers and embedding width) must match. The
// load is all-or-nothing across every layer: entries are parsed into
// staging caches and committed only after the whole snapshot validates,
// so a corrupt file leaves the engine's caches untouched. Only the
// current enveloped, model-versioned format loads; any other file is
// refused with an error and the caches stay as they were.
func (e *Engine) LoadCaches(path string) error {
	return e.LoadCachesFS(checkpoint.OS{}, path)
}

// LoadCachesFS is LoadCaches over an injectable file system — the
// shard supervisor restores a crashed shard's snapshot through it so
// fault tests can drive the restart leg with internal/faultfs.
func (e *Engine) LoadCachesFS(fsys checkpoint.FS, path string) error {
	if e.caches == nil {
		return fmt.Errorf("core: engine has no caches to load into")
	}
	// Under the swap barrier's read side: the version the snapshot is
	// validated against cannot change while entries are committed.
	e.swapGate.RLock()
	defer e.swapGate.RUnlock()
	return checkpoint.ReadFS(fsys, path, func(version uint32, r io.Reader) error {
		if version != cacheSnapshotVersion {
			return fmt.Errorf("core: cache snapshot version %d, engine reads %d", version, cacheSnapshotVersion)
		}
		// The model-version stamp precedes the layer stream. A snapshot
		// taken under other parameters is refused — its memos would be
		// bitwise-wrong under the current model.
		var mv [8]byte
		if _, err := io.ReadFull(r, mv[:]); err != nil {
			return err
		}
		if v := binary.LittleEndian.Uint64(mv[:]); v != e.version.Load() {
			return fmt.Errorf("core: cache snapshot is model version %d, engine serves %d — re-warm instead of loading across versions", v, e.version.Load())
		}
		return e.loadCacheStream(r)
	})
}

// loadCacheStream parses a layer stream into staging caches and
// commits them only if every layer parses cleanly.
func (e *Engine) loadCacheStream(r io.Reader) error {
	br := bufio.NewReader(r)
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return err
	}
	layers := binary.LittleEndian.Uint32(hdr[:])
	if layers > uint32(len(e.caches)) {
		return fmt.Errorf("core: snapshot has %d cached layers, engine has %d", layers, len(e.caches))
	}
	staged := make(map[int]*Cache, layers)
	for i := uint32(0); i < layers; i++ {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return err
		}
		l := int(binary.LittleEndian.Uint32(hdr[:]))
		if l < 0 || l >= len(e.caches) || e.caches[l] == nil {
			return fmt.Errorf("core: snapshot has cache for layer %d, engine does not", l)
		}
		if _, ok := staged[l]; ok {
			return fmt.Errorf("core: snapshot lists layer %d twice", l)
		}
		sc := e.caches[l].cloneEmpty()
		if _, err := sc.ReadFrom(br); err != nil {
			return fmt.Errorf("core: layer %d: %w", l, err)
		}
		staged[l] = sc
	}
	// Commit: every layer validated; merge into the live caches. Deep
	// layers are the exception under transitive invalidation: a key
	// decodes its target and time but not the support set the entry
	// aggregated, so a warm-started deep entry could never be
	// selectively invalidated — those layers conservatively re-warm
	// instead of loading (DESIGN.md §15). Layer 1 keeps its warm
	// start: its index rebuilds from the keys alone.
	for l, sc := range staged {
		if l >= 2 && e.layerSupports != nil {
			continue
		}
		e.caches[l].absorb(sc)
	}
	e.rebuildTargetIndex()
	return nil
}

// rebuildTargetIndex re-derives the layer-1 per-node key index from
// the layer-1 cache after a snapshot load, so late-edge invalidation
// also covers warm-started entries. Keys decode exactly within Key's
// documented domain (integral timestamps fitting 32 bits); outside it
// the cache keying itself already forfeits its guarantees.
func (e *Engine) rebuildTargetIndex() {
	ix := e.TargetsFor(1)
	if ix == nil {
		return
	}
	c := e.CacheFor(1)
	if c == nil {
		return
	}
	for _, key := range c.Keys() {
		ix.Record(int32(key>>32), key, float64(uint32(key)))
	}
}
