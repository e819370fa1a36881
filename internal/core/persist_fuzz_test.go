package core

import (
	"bytes"
	"testing"

	"tgopt/internal/tensor"
)

// fuzzSeedBlobs builds representative cache-blob inputs: a valid v2
// blob, a retired v1 blob (refused), and mutations of each. The v2
// blobs back the checked-in corpus under testdata/fuzz.
func fuzzSeedBlobs() [][]byte {
	c := NewCache(16, 3, 4)
	r := tensor.NewRNG(9)
	keys := make([]uint64, 8)
	for i := range keys {
		keys[i] = r.Uint64()
	}
	c.Store(keys, tensor.Rand(r, 8, 3))
	var v2 bytes.Buffer
	if _, err := c.WriteTo(&v2); err != nil {
		panic(err)
	}
	vals := make([][]float32, len(keys))
	for i := range vals {
		vals[i] = []float32{1, 2, 3}
	}
	v1 := legacyV1Blob(3, keys, vals)

	flipped := append([]byte(nil), v2.Bytes()...)
	flipped[len(flipped)/2] ^= 0x10
	countLies := append([]byte(nil), v1...)
	countLies[8] = 0xFF // v1 count header far beyond the entries present

	return [][]byte{
		v2.Bytes(),
		v1,
		v2.Bytes()[:v2.Len()/2],
		flipped,
		countLies,
		{},
	}
}

// FuzzCacheReadFrom asserts the reader's contract over arbitrary
// bytes: it never panics, never allocates proportionally to a hostile
// header, and either applies a full snapshot or — on any error —
// leaves the cache exactly as it was (here: one pre-existing entry).
func FuzzCacheReadFrom(f *testing.F) {
	for _, seed := range fuzzSeedBlobs() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewCache(16, 3, 4)
		c.Store([]uint64{42}, tensor.Ones(1, 3))
		probe := func() {
			// Counter invariant: whatever bytes the reader consumed, a
			// lookup pass afterwards must account exactly — every lookup
			// is a hit or a miss, and without a spill tier there are no
			// spill hits or promotions.
			dst := tensor.New(1, 3)
			hits := make([]bool, 1)
			c.LookupInto([]uint64{42}, dst, hits)
			c.LookupInto([]uint64{977}, dst, hits)
			st := c.Stats()
			if st.Lookups != st.Hits+st.Misses {
				t.Fatalf("lookups %d != hits %d + misses %d", st.Lookups, st.Hits, st.Misses)
			}
			if st.SpillHits != 0 || st.Promotes != 0 {
				t.Fatalf("spill counters moved without a spill tier: %+v", st)
			}
		}
		_, err := c.ReadFrom(bytes.NewReader(data))
		if err != nil {
			if c.Len() != 1 || !c.Contains(42) {
				t.Fatalf("failed load half-applied: len=%d", c.Len())
			}
			probe()
			return
		}
		// On success the pre-existing entry may legitimately have been
		// FIFO-evicted by the loaded ones; only the limit must hold.
		if c.Len() > c.Limit() {
			t.Fatalf("load exceeded limit: %d > %d", c.Len(), c.Limit())
		}
		probe()
	})
}
