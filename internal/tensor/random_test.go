package tensor

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	c := NewRNG(43)
	if NewRNG(42).Uint64() == c.Uint64() {
		t.Fatal("different seeds produced identical first value (suspicious)")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRNGIntnRangeAndPanic(t *testing.T) {
	r := NewRNG(2)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestRNGNormalMoments(t *testing.T) {
	r := NewRNG(3)
	n := 200000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sum2 += v * v
	}
	mean := sum / float64(n)
	variance := sum2/float64(n) - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestRNGParetoTail(t *testing.T) {
	r := NewRNG(4)
	xm, alpha := 1.0, 1.5
	n := 100000
	var below, large int
	for i := 0; i < n; i++ {
		v := r.Pareto(xm, alpha)
		if v < xm {
			below++
		}
		if v > 10 {
			large++
		}
	}
	if below != 0 {
		t.Fatalf("%d Pareto samples below xm", below)
	}
	// P(X > 10) = (xm/10)^alpha ≈ 0.0316 for alpha=1.5.
	frac := float64(large) / float64(n)
	if frac < 0.02 || frac > 0.05 {
		t.Fatalf("Pareto tail fraction = %v, want ≈0.032", frac)
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	prop := func(seed uint32, nRaw uint8) bool {
		n := int(nRaw) % 100
		p := NewRNG(uint64(seed)).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestXavierUniformBounds(t *testing.T) {
	r := NewRNG(5)
	w := New(50, 30)
	XavierUniform(r, w)
	a := math.Sqrt(6.0 / (50 + 30))
	var nonzero int
	for _, v := range w.Data() {
		if math.Abs(float64(v)) > a {
			t.Fatalf("Xavier value %v exceeds bound %v", v, a)
		}
		if v != 0 {
			nonzero++
		}
	}
	if nonzero < w.Len()/2 {
		t.Fatal("Xavier left most weights zero")
	}
}

func TestRandRandnShapes(t *testing.T) {
	r := NewRNG(6)
	u := Rand(r, 3, 4)
	if u.Len() != 12 {
		t.Fatalf("Rand len %d", u.Len())
	}
	for _, v := range u.Data() {
		if v < 0 || v >= 1 {
			t.Fatalf("Rand value %v out of range", v)
		}
	}
	g := Randn(r, 100, 100)
	if g.HasNaN() {
		t.Fatal("Randn produced NaN")
	}
}

func TestTensorSerializationRoundTrip(t *testing.T) {
	r := NewRNG(7)
	orig := Randn(r, 3, 7, 2)
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var back Tensor
	if _, err := back.ReadFrom(&buf); err != nil {
		t.Fatal(err)
	}
	if !back.SameShape(orig) || !back.AllClose(orig, 0) {
		t.Fatal("serialization round trip mismatch")
	}
}

func TestTensorSerializationRejectsGarbage(t *testing.T) {
	var tt Tensor
	if _, err := tt.ReadFrom(bytes.NewReader([]byte{1, 2, 3, 4, 5, 6, 7, 8})); err == nil {
		t.Fatal("bad magic accepted")
	}
}
