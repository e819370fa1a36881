package tensor

import (
	"testing"

	"tgopt/internal/parallel"
)

// matmulNaive is the reference kernel every optimized variant is
// validated against: the textbook triple loop, no blocking, no
// branches, float32 accumulation in i-k-j order (the same accumulation
// order as the blocked kernels, so dense results must be bitwise
// equal).
func matmulNaive(a, b *Tensor) *Tensor {
	m, k := a.shape[0], a.shape[1]
	n := b.shape[1]
	out := New(m, n)
	for i := 0; i < m; i++ {
		for kk := 0; kk < k; kk++ {
			av := a.data[i*k+kk]
			for j := 0; j < n; j++ {
				out.data[i*n+j] += av * b.data[kk*n+j]
			}
		}
	}
	return out
}

// matmulTNaive is the reference for the A·Bᵀ kernels: sequential dot
// products accumulated left to right.
func matmulTNaive(a, b *Tensor) *Tensor {
	m, k := a.shape[0], a.shape[1]
	n := b.shape[0]
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for kk := 0; kk < k; kk++ {
				s += a.data[i*k+kk] * b.data[j*k+kk]
			}
			out.data[i*n+j] = s
		}
	}
	return out
}

// kernelShapes covers the shapes the TGAT layers produce plus edge
// cases: row counts around the 4-row blocking (tails of 1..3), column
// counts around the 4-wide panels, and a single-element op.
var kernelShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{1, 7, 5},
	{3, 8, 6},
	{4, 16, 4},
	{5, 3, 9},
	{7, 33, 13},
	{64, 96, 64},
	{130, 96, 33},
	{257, 17, 31},
}

func TestMatMulIntoMatchesNaive(t *testing.T) {
	r := NewRNG(11)
	for _, s := range kernelShapes {
		a := Randn(r, s.m, s.k)
		b := Randn(r, s.k, s.n)
		want := matmulNaive(a, b)
		got := New(s.m, s.n)
		got.Fill(999) // Into must fully overwrite
		MatMulInto(a, b, got)
		// Same accumulation order (i-k-j) → bitwise equality.
		if d := got.MaxAbsDiff(want); d != 0 {
			t.Errorf("MatMulInto %dx%dx%d: max diff %g from naive", s.m, s.k, s.n, d)
		}
	}
}

func TestMatMulSparseMatchesNaive(t *testing.T) {
	r := NewRNG(13)
	for _, s := range kernelShapes {
		a := Randn(r, s.m, s.k)
		// Zero out most of A, as masked attention weights are.
		for i := range a.data {
			if i%5 != 0 {
				a.data[i] = 0
			}
		}
		b := Randn(r, s.k, s.n)
		want := matmulNaive(a, b)
		got := New(s.m, s.n)
		got.Fill(999)
		MatMulSparseInto(a, b, got)
		// Skipping the zero terms never changes a finite sum: bitwise.
		if d := got.MaxAbsDiff(want); d != 0 {
			t.Errorf("MatMulSparseInto %dx%dx%d: max diff %g from naive", s.m, s.k, s.n, d)
		}
	}
}

func TestMatMulTIntoMatchesNaive(t *testing.T) {
	r := NewRNG(14)
	for _, s := range kernelShapes {
		a := Randn(r, s.m, s.k)
		b := Randn(r, s.n, s.k) // nn.Linear layout (out, in)
		want := matmulTNaive(a, b)
		got := New(s.m, s.n)
		got.Fill(999)
		MatMulTInto(a, b, got)
		// The 4-unrolled dot32 tail groups additions differently from the
		// sequential reference, so allow float32 rounding slack.
		if d := got.MaxAbsDiff(want); d > 1e-4 {
			t.Errorf("MatMulTInto %dx%dx%d: max diff %g from naive", s.m, s.k, s.n, d)
		}
	}
}

func TestLinearIntoMatchesLinear(t *testing.T) {
	r := NewRNG(16)
	x := Randn(r, 33, 24)
	w := Randn(r, 17, 24)
	bias := Randn(r, 17)
	want := Linear(x, w, bias)
	got := New(33, 17)
	got.Fill(999)
	LinearInto(x, w, bias, got)
	if d := got.MaxAbsDiff(want); d != 0 {
		t.Errorf("LinearInto: max diff %g from Linear", d)
	}
}

func TestSoftmaxIntoVariants(t *testing.T) {
	r := NewRNG(17)
	a := Randn(r, 13, 9)
	mask := make([]bool, a.Len())
	for i := range mask {
		mask[i] = i%4 != 0
	}
	plain := New(13, 9)
	SoftmaxLastDimInto(a, plain)
	if d := plain.MaxAbsDiff(SoftmaxLastDim(a)); d != 0 {
		t.Errorf("SoftmaxLastDimInto: diff %g", d)
	}
	masked := New(13, 9)
	MaskedSoftmaxLastDimInto(a, mask, masked)
	if d := masked.MaxAbsDiff(MaskedSoftmaxLastDim(a, mask)); d != 0 {
		t.Errorf("MaskedSoftmaxLastDimInto: diff %g", d)
	}
}

func TestConcatColsInto(t *testing.T) {
	r := NewRNG(18)
	x := Randn(r, 7, 3)
	y := Randn(r, 7, 5)
	z := Randn(r, 7, 2)
	want := ConcatCols(x, y, z)
	got := New(7, 10)
	got.Fill(999)
	ConcatColsInto(got, x, y, z)
	if d := got.MaxAbsDiff(want); d != 0 {
		t.Errorf("ConcatColsInto: diff %g", d)
	}
}

func TestMatMulIntoParallelMatchesSerial(t *testing.T) {
	r := NewRNG(19)
	a := Randn(r, 512, 40)
	b := Randn(r, 40, 24)
	par := New(512, 24)
	MatMulInto(a, b, par)
	prev := parallel.SetDegree(1)
	ser := New(512, 24)
	MatMulInto(a, b, ser)
	parallel.SetDegree(prev)
	if d := par.MaxAbsDiff(ser); d != 0 {
		t.Errorf("parallel vs serial MatMulInto: diff %g", d)
	}
}

// The steady-state allocation contract of the hot kernels: writing into
// preallocated destinations never touches the heap.
func TestKernelAllocs(t *testing.T) {
	prev := parallel.SetDegree(1)
	defer parallel.SetDegree(prev)
	r := NewRNG(20)
	a := Randn(r, 128, 96)
	b := Randn(r, 96, 64)
	bt := Randn(r, 64, 96)
	dst := New(128, 64)
	bias := Randn(r, 64)
	for name, fn := range map[string]func(){
		"MatMulInto":       func() { MatMulInto(a, b, dst) },
		"MatMulSparseInto": func() { MatMulSparseInto(a, b, dst) },
		"MatMulTInto":      func() { MatMulTInto(a, bt, dst) },
		"LinearInto":       func() { LinearInto(a, bt, bias, dst) },
	} {
		if allocs := testing.AllocsPerRun(10, fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, allocs)
		}
	}
}

func TestArenaReuseAndReset(t *testing.T) {
	ar := NewArena()
	t1 := ar.Tensor(4, 8)
	d1 := &t1.data[0]
	s1 := ar.Float64s(100)
	ar.Reset()
	t2 := ar.Tensor(4, 8)
	if &t2.data[0] != d1 {
		t.Error("arena did not reuse tensor storage after Reset")
	}
	if t2 != t1 {
		t.Error("arena did not reuse the tensor header after Reset")
	}
	s2 := ar.Float64s(50)
	if &s1[0] != &s2[0] {
		t.Error("arena did not reuse slab storage after Reset")
	}
	// Growing a slot reallocates once, then sticks.
	big := ar.Float64s(1000)
	ar.Reset()
	_ = ar.Float64s(50)
	big2 := ar.Float64s(900)
	if &big[0] != &big2[0] {
		t.Error("arena slot did not retain grown capacity")
	}
}

func TestArenaTensorZeroAndShapes(t *testing.T) {
	ar := NewArena()
	x := ar.Tensor(2, 3)
	x.Fill(7)
	ar.Reset()
	z := ar.TensorZero(3, 2)
	for _, v := range z.Data() {
		if v != 0 {
			t.Fatal("TensorZero returned dirty storage")
		}
	}
	if z.Dim(0) != 3 || z.Dim(1) != 2 {
		t.Fatalf("TensorZero shape %v", z.Shape())
	}
	w := ar.Wrap(make([]float32, 6), 2, 3)
	if w.Dim(0) != 2 || w.Dim(1) != 3 {
		t.Fatalf("Wrap shape %v", w.Shape())
	}
}

func TestNilArenaFallsBackToHeap(t *testing.T) {
	var ar *Arena
	x := ar.Tensor(2, 2)
	y := ar.TensorZero(2, 2)
	if x.Len() != 4 || y.Len() != 4 {
		t.Fatal("nil arena Tensor failed")
	}
	if len(ar.Float64s(3)) != 3 || len(ar.Int32s(3)) != 3 ||
		len(ar.Uint64s(3)) != 3 || len(ar.Bools(3)) != 3 || len(ar.Float32s(3)) != 3 {
		t.Fatal("nil arena slices failed")
	}
	ar.Reset() // must not panic
}

func TestArenaSteadyStateAllocs(t *testing.T) {
	ar := NewArena()
	work := func() {
		ar.Reset()
		q := ar.Tensor(16, 32)
		kv := ar.TensorZero(160, 64)
		_ = ar.Float64s(160)
		_ = ar.Int32s(160)
		_ = ar.Bools(160)
		_ = ar.Uint64s(16)
		_ = ar.Wrap(q.Data(), 32, 16)
		_ = kv
	}
	work() // warm the slots
	if allocs := testing.AllocsPerRun(20, work); allocs != 0 {
		t.Errorf("steady-state arena pass: %v allocs/op, want 0", allocs)
	}
}

// GetArena/PutArena must be race-free under concurrent checkout (the
// -race gate exercises this).
func TestArenaPoolConcurrent(t *testing.T) {
	parallel.For(64, func(i int) {
		ar := GetArena()
		tt := ar.Tensor(8, 8)
		tt.Fill(float32(i))
		for _, v := range tt.Data() {
			if v != float32(i) {
				t.Error("arena storage raced")
			}
		}
		PutArena(ar)
	})
}

func TestParallelThresholdDefaults(t *testing.T) {
	if ParallelThresholds.MatMulRows != 64 {
		t.Errorf("unexpected defaults %+v", ParallelThresholds)
	}
}
