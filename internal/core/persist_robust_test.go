package core

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"

	"tgopt/internal/checkpoint"
	"tgopt/internal/faultfs"
	"tgopt/internal/tensor"
	"tgopt/internal/tgat"
)

// legacyV1Blob builds a pre-envelope cache blob: global-count header
// under the "TGCC" magic, as the retired v1 writer produced it.
func legacyV1Blob(dim int, keys []uint64, vals [][]float32) []byte {
	var buf bytes.Buffer
	put32 := func(v uint32) {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		buf.Write(b[:])
	}
	put32(0x54474343) // "TGCC"
	put32(uint32(dim))
	put32(uint32(len(keys)))
	rec := make([]byte, 8+4*dim)
	for i, k := range keys {
		binary.LittleEndian.PutUint64(rec, k)
		for j, f := range vals[i] {
			binary.LittleEndian.PutUint32(rec[8+4*j:], math.Float32bits(f))
		}
		buf.Write(rec)
	}
	return buf.Bytes()
}

// TestCacheWriteToConcurrentStores exercises the snapshot count race
// the v1 format had: the header count was taken before the per-shard
// iteration, so stores and evictions racing with WriteTo could make
// the header disagree with the entries written, and the snapshot
// failed (or silently truncated) on load. The v2 per-shard sections
// count entries as they are serialized under the shard lock, so every
// snapshot taken mid-churn must load cleanly.
func TestCacheWriteToConcurrentStores(t *testing.T) {
	c := NewCache(256, 4, 8)
	r := tensor.NewRNG(3)
	seedKeys := make([]uint64, 128)
	for i := range seedKeys {
		seedKeys[i] = r.Uint64()
	}
	c.Store(seedKeys, tensor.Rand(r, len(seedKeys), 4))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rg := tensor.NewRNG(seed)
			row := tensor.New(1, 4)
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Churn: new keys force evictions, old keys refresh.
				key := rg.Uint64() % 512
				c.Store([]uint64{key}, row)
			}
		}(uint64(g + 10))
	}
	for iter := 0; iter < 50; iter++ {
		var buf bytes.Buffer
		if _, err := c.WriteTo(&buf); err != nil {
			t.Fatalf("iter %d: WriteTo: %v", iter, err)
		}
		fresh := NewCache(256, 4, 8)
		if _, err := fresh.ReadFrom(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("iter %d: snapshot taken mid-churn does not load: %v", iter, err)
		}
		if fresh.Len() > fresh.Limit() {
			t.Fatalf("iter %d: restored %d entries over limit %d", iter, fresh.Len(), fresh.Limit())
		}
	}
	close(stop)
	wg.Wait()
}

func TestCacheReadFromAllOrNothing(t *testing.T) {
	good := NewCache(100, 3, 4)
	r := tensor.NewRNG(4)
	keys := make([]uint64, 30)
	for i := range keys {
		keys[i] = r.Uint64()
	}
	good.Store(keys, tensor.Rand(r, 30, 3))
	var buf bytes.Buffer
	if _, err := good.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()

	orig := tensor.Ones(1, 3)
	for cut := 0; cut < len(blob); cut++ {
		c := NewCache(100, 3, 4)
		c.Store([]uint64{7}, orig)
		_, err := c.ReadFrom(bytes.NewReader(blob[:cut]))
		if err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
		// The failed load must not have half-applied: the cache holds
		// exactly its prior single entry.
		if c.Len() != 1 || !c.Contains(7) {
			t.Fatalf("truncation at %d half-applied: len=%d", cut, c.Len())
		}
	}
}

// TestCacheReadFromLegacyV1Blob: the v1 layout is no longer read. A v1
// blob is refused and leaves the cache exactly as it was.
func TestCacheReadFromLegacyV1Blob(t *testing.T) {
	keys := []uint64{11, 22, 33}
	vals := [][]float32{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}
	blob := legacyV1Blob(3, keys, vals)
	c := NewCache(10, 3, 2)
	c.Store([]uint64{7}, tensor.Ones(1, 3))
	if _, err := c.ReadFrom(bytes.NewReader(blob)); err == nil {
		t.Fatal("legacy v1 blob accepted")
	}
	if c.Len() != 1 || !c.Contains(7) {
		t.Fatalf("refused v1 blob changed the cache: len=%d", c.Len())
	}
	for _, k := range keys {
		if c.Contains(k) {
			t.Fatalf("refused v1 blob applied key %d", k)
		}
	}
}

// TestSaveCachesAtomicUnderWriteFaults proves the engine-level
// invariant: whatever fault the file system injects during a snapshot
// — a short write at any offset, a failed create, fsync, or rename —
// the previous on-disk snapshot remains fully loadable.
func TestSaveCachesAtomicUnderWriteFaults(t *testing.T) {
	ds, m, s := engineTestSetup(t, 400)
	eng := NewEngine(m, s, OptAll())
	tgat.StreamInference(ds.Graph, m, 100, eng.EmbedFunc())
	warmLen := eng.CacheLen()
	if warmLen == 0 {
		t.Fatal("no warm state to persist")
	}
	path := filepath.Join(t.TempDir(), "cache.bin")
	if err := eng.SaveCaches(path); err != nil {
		t.Fatal(err)
	}
	size, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	checkPrevIntact := func(when string, saveErr error) {
		t.Helper()
		if saveErr == nil {
			t.Fatalf("%s: fault not reported", when)
		}
		eng2 := NewEngine(m, s, OptAll())
		if err := eng2.LoadCaches(path); err != nil {
			t.Fatalf("%s: previous snapshot damaged: %v", when, err)
		}
		if eng2.CacheLen() != warmLen {
			t.Fatalf("%s: previous snapshot lost entries: %d, want %d", when, eng2.CacheLen(), warmLen)
		}
	}

	// Short writes: every boundary of the small header region, then a
	// stride through the body (a full per-byte sweep would re-serialize
	// the cache thousands of times for no extra coverage).
	limits := []int{0, 1, 4, 15, 16, 17, 20}
	for l := 64; l < int(size.Size()); l += 997 {
		limits = append(limits, l)
	}
	limits = append(limits, int(size.Size())-1)
	for _, limit := range limits {
		fsys := faultfs.NewFS()
		fsys.WriteLimit = limit
		checkPrevIntact("short write", eng.SaveCachesFS(fsys, path))
	}
	checkPrevIntact("create", eng.SaveCachesFS(&faultfs.FS{WriteLimit: -1, FailCreate: true}, path))
	checkPrevIntact("sync", eng.SaveCachesFS(&faultfs.FS{WriteLimit: -1, FailSync: true}, path))
	checkPrevIntact("rename", eng.SaveCachesFS(&faultfs.FS{WriteLimit: -1, FailRename: true}, path))
}

// TestLoadCachesCorruptLeavesEngineCold: at-rest corruption (bit flips
// and truncations anywhere in the file) must surface as a clean error
// with zero entries applied — the degraded-but-consistent cold start
// tgopt-serve relies on.
func TestLoadCachesCorruptLeavesEngineCold(t *testing.T) {
	ds, m, s := engineTestSetup(t, 400)
	eng := NewEngine(m, s, OptAll())
	tgat.StreamInference(ds.Graph, m, 100, eng.EmbedFunc())
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.bin")
	if err := eng.SaveCaches(path); err != nil {
		t.Fatal(err)
	}
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	corruptions := []int64{0, 13, 35, 64 * 8}
	for bit := int64(1000); bit < int64(len(clean))*8; bit += 7919 {
		corruptions = append(corruptions, bit)
	}
	corruptions = append(corruptions, int64(len(clean))*8-1)
	for _, bit := range corruptions {
		if err := os.WriteFile(path, clean, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := faultfs.FlipBit(path, bit); err != nil {
			t.Fatal(err)
		}
		cold := NewEngine(m, s, OptAll())
		if err := cold.LoadCaches(path); err == nil {
			t.Fatalf("bit flip at %d went undetected", bit)
		}
		if n := cold.CacheLen(); n != 0 {
			t.Fatalf("bit flip at %d half-applied %d entries", bit, n)
		}
	}
	for _, cut := range []int64{0, 3, 16, 19, int64(len(clean) / 2), int64(len(clean)) - 1} {
		if err := os.WriteFile(path, clean, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := faultfs.TruncateFile(path, cut); err != nil {
			t.Fatal(err)
		}
		cold := NewEngine(m, s, OptAll())
		if err := cold.LoadCaches(path); err == nil {
			t.Fatalf("truncation to %d went undetected", cut)
		}
		if n := cold.CacheLen(); n != 0 {
			t.Fatalf("truncation to %d half-applied %d entries", cut, n)
		}
	}
}

// engineCacheKeys lists every cached key per layer, sorted, so a test
// can assert that a refused load left the caches untouched.
func engineCacheKeys(e *Engine) map[int][]uint64 {
	out := make(map[int][]uint64)
	for l, c := range e.caches {
		if c == nil {
			continue
		}
		keys := c.Keys()
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		out[l] = keys
	}
	return out
}

// TestLoadCachesLegacyFile: snapshot files in retired formats — the
// pre-envelope raw layer stream with v1 blobs, and the unversioned
// version-2 envelope — are refused, and the engine's caches stay as
// they were (a refused snapshot means a cold start, never a partial
// one).
func TestLoadCachesLegacyFile(t *testing.T) {
	ds, m, s := engineTestSetup(t, 300)
	eng := NewEngine(m, s, OptAll())
	edges := ds.Graph.Edges()[:40]
	nodes := make([]int32, len(edges))
	ts := make([]float64, len(edges))
	for i, e := range edges {
		nodes[i], ts[i] = e.Src, e.Time
	}
	eng.Embed(nodes, ts)
	before := engineCacheKeys(eng)
	if eng.CacheLen() == 0 {
		t.Fatal("warm-up cached nothing")
	}

	layerStream := func(blob []byte) []byte {
		var buf bytes.Buffer
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], 1) // one cached layer
		buf.Write(b[:])
		buf.Write(b[:]) // layer 1
		buf.Write(blob)
		return buf.Bytes()
	}
	keys := []uint64{5, 6}
	vals := [][]float32{make([]float32, 16), make([]float32, 16)}
	vals[0][0], vals[1][0] = 1.5, 2.5
	dir := t.TempDir()
	legacy := filepath.Join(dir, "legacy.bin")
	if err := os.WriteFile(legacy, layerStream(legacyV1Blob(16, keys, vals)), 0o644); err != nil {
		t.Fatal(err)
	}
	c := NewCache(10, 16, 1)
	c.Store(keys, tensor.Ones(2, 16))
	var blob bytes.Buffer
	if _, err := c.WriteTo(&blob); err != nil {
		t.Fatal(err)
	}
	v2 := filepath.Join(dir, "v2.bin")
	if err := checkpoint.Write(v2, 2, func(w io.Writer) error {
		_, err := w.Write(layerStream(blob.Bytes()))
		return err
	}); err != nil {
		t.Fatal(err)
	}

	for _, path := range []string{legacy, v2} {
		if err := eng.LoadCaches(path); err == nil {
			t.Fatalf("%s: retired snapshot format accepted", filepath.Base(path))
		}
		if after := engineCacheKeys(eng); !reflect.DeepEqual(after, before) {
			t.Fatalf("%s: refused snapshot changed the caches", filepath.Base(path))
		}
	}
}
