package tensor

import (
	"fmt"
	"math"
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

// matmulTGo is the portable A·Bᵀ path: matmulTRows over every row, the
// loop non-AVX2 hosts run and the reference the SIMD kernel must match
// bit for bit.
func matmulTGo(a, b *Tensor) *Tensor {
	m, k, n := a.shape[0], a.shape[1], b.shape[0]
	out := New(m, n)
	matmulTRows(a.data, b.data, out.data, 0, m, k, n)
	return out
}

// requireBitwise fails unless got and want hold the same float32 bit
// patterns (so NaNs compare too, and +0 differs from -0).
func requireBitwise(t *testing.T, name string, got, want *Tensor) {
	t.Helper()
	for i, w := range want.data {
		if g := got.data[i]; math.Float32bits(g) != math.Float32bits(w) {
			t.Errorf("%s: element %d = %g (%#08x), want %g (%#08x)",
				name, i, g, math.Float32bits(g), w, math.Float32bits(w))
			return
		}
	}
}

// checkMatMulTBitwise runs MatMulTInto and LinearInto on the SIMD path
// (when the host has it) and with it switched off, each serially and at
// the default parallel degree, against the Go loop.
func checkMatMulTBitwise(t *testing.T, label string, a, b, bias *Tensor) {
	t.Helper()
	m, n := a.shape[0], b.shape[0]
	want := matmulTGo(a, b)
	wantLin := want.Clone()
	AddRowBiasInPlace(wantLin, bias)
	defer func(on bool) { useSIMD = on }(useSIMD)
	for _, simd := range []bool{useSIMD, false} {
		useSIMD = simd
		for _, degree := range []int{1, parallel.Degree()} {
			prev := parallel.SetDegree(degree)
			name := fmt.Sprintf("%s simd=%v degree=%d", label, simd, degree)
			got := New(m, n)
			got.Fill(999) // Into must fully overwrite
			MatMulTInto(a, b, got)
			requireBitwise(t, "MatMulTInto "+name, got, want)
			got.Fill(999)
			LinearInto(a, b, bias, got)
			requireBitwise(t, "LinearInto "+name, got, wantLin)
			parallel.SetDegree(prev)
		}
	}
}

func TestMatMulTIntoBitwiseMatchesGoLoop(t *testing.T) {
	t.Logf("SIMD kernel available: %v", useSIMD)
	r := NewRNG(21)
	// k=300 spans three packed k blocks (panelK=128); n=31 ends in a
	// 12-column panel, n=4 is one 4-column panel.
	for _, m := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65, 4096} {
		for _, k := range []int{1, 7, 96, 97, 300} {
			for _, n := range []int{1, 3, 4, 31, 32, 33, 64, 65} {
				if m == 4096 && (k != 96 || n < 64) {
					continue // the serving shape; the rest run at fewer rows
				}
				a := Randn(r, m, k)
				b := Randn(r, n, k)
				bias := Randn(r, n)
				checkMatMulTBitwise(t, fmt.Sprintf("%dx%dx%d", m, k, n), a, b, bias)
			}
		}
	}
}

// The dense loop turns 0·Inf and Inf−Inf into NaN and carries NaN
// through every later sum; the SIMD kernel must produce the same bits.
// Each A row holds one kind of special value, so every NaN meeting
// another NaN in a sum carries the same payload (which of two payloads
// an x86 add keeps depends on operand order, which the Go compiler does
// not fix).
func TestMatMulTIntoBitwiseSpecialValues(t *testing.T) {
	r := NewRNG(22)
	const m, k, n = 67, 97, 37
	a := Randn(r, m, k)
	b := Randn(r, n, k)
	bias := Randn(r, n)
	for j := 0; j < n; j += 3 {
		b.data[j*k+j%k] = 0 // 0·Inf in the rows that hold an Inf there
	}
	inf := float32(math.Inf(1))
	nan := float32(math.NaN())
	for i := 0; i < m; i++ {
		row := a.data[i*k : i*k+k]
		switch i % 4 {
		case 0:
			row[i%k] = nan
		case 1:
			row[(i*7)%k] = inf
		case 2:
			row[(i*5)%k] = inf
			row[(i*11+1)%k] = -inf
		}
	}
	checkMatMulTBitwise(t, "special", a, b, bias)
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
	// LinearInto runs at 128 rows and at one row (a padded block) on
	// the SIMD kernel where the host has it, and on the Go loop.
	one := Randn(r, 1, 96)
	oneDst := New(1, 64)
	simd := useSIMD
	for name, fn := range map[string]func(){
		"MatMulInto":         func() { MatMulInto(a, b, dst) },
		"MatMulTInto":        func() { MatMulTInto(a, bt, dst) },
		"LinearInto":         func() { LinearInto(a, bt, bias, dst) },
		"LinearInto/one-row": func() { LinearInto(one, bt, bias, oneDst) },
		"LinearInto/go-loop": func() {
			useSIMD = false
			LinearInto(a, bt, bias, dst)
			useSIMD = simd
		},
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
