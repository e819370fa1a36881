package tensor

import (
	"fmt"

	"tgopt/internal/parallel"
)

// MatMul computes C = A·B for rank-2 tensors A (m,k) and B (k,n).
func MatMul(a, b *Tensor) *Tensor {
	m := a.shape[0]
	if b.Rank() != 2 || a.Rank() != 2 {
		panic("tensor: MatMul requires rank-2 operands")
	}
	out := New(m, b.shape[1])
	MatMulInto(a, b, out)
	return out
}

// MatMulInto computes dst = A·B, with dst preallocated to shape (m, n);
// dst's prior contents are overwritten. The kernel processes four A
// rows at a time in i-k-j order, so each streamed B row is reused for
// four output rows while it sits in registers/L1 — the register
// blocking that makes the dense path memory-bandwidth-, not
// latency-bound. The inner loop is branch-free. The row loop
// parallelizes above ParallelThresholds.MatMulRows.
func MatMulInto(a, b, dst *Tensor) {
	m, k := a.shape[0], a.shape[1]
	n := b.shape[1]
	if b.shape[0] != k {
		panic(fmt.Sprintf("tensor: MatMulInto inner dimension mismatch %v x %v", a.shape, b.shape))
	}
	if dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulInto dst shape %v, want [%d %d]", dst.shape, m, n))
	}
	ad, bd, cd := a.data, b.data, dst.data
	// The closure is built only on the fan-out branch: creating it
	// unconditionally would heap-allocate it on the serial path too
	// (it escapes through ForChunked), breaking the zero-alloc contract.
	if m >= ParallelThresholds.MatMulRows && parallel.Degree() > 1 {
		parallel.ForChunked(m, 0, func(lo, hi int) { matmulRows(ad, bd, cd, lo, hi, k, n) })
	} else {
		matmulRows(ad, bd, cd, 0, m, k, n)
	}
}

// matmulRows computes rows [lo,hi) of c = a·b with 4-row register
// blocking and a branch-free inner loop. Rows are fully overwritten.
func matmulRows(a, b, c []float32, lo, hi, k, n int) {
	i := lo
	for ; i+4 <= hi; i += 4 {
		r0 := c[(i+0)*n : (i+0)*n+n]
		r1 := c[(i+1)*n : (i+1)*n+n]
		r2 := c[(i+2)*n : (i+2)*n+n]
		r3 := c[(i+3)*n : (i+3)*n+n]
		clear(r0)
		clear(r1)
		clear(r2)
		clear(r3)
		a0 := a[(i+0)*k : (i+0)*k+k]
		a1 := a[(i+1)*k : (i+1)*k+k]
		a2 := a[(i+2)*k : (i+2)*k+k]
		a3 := a[(i+3)*k : (i+3)*k+k]
		for kk := 0; kk < k; kk++ {
			brow := b[kk*n : kk*n+n]
			av0, av1, av2, av3 := a0[kk], a1[kk], a2[kk], a3[kk]
			for j, bv := range brow {
				r0[j] += av0 * bv
				r1[j] += av1 * bv
				r2[j] += av2 * bv
				r3[j] += av3 * bv
			}
		}
	}
	for ; i < hi; i++ {
		crow := c[i*n : i*n+n]
		clear(crow)
		arow := a[i*k : i*k+k]
		for kk, av := range arow {
			brow := b[kk*n : kk*n+n]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
}

// MatMulT computes C = A·Bᵀ for A (m,k) and B (n,k), i.e. every output
// element is a dot product of an A row with a B row. This avoids
// materializing the transpose and is the kernel the attention layer uses
// for query–key scores.
func MatMulT(a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: MatMulT requires rank-2 operands")
	}
	out := New(a.shape[0], b.shape[0])
	MatMulTInto(a, b, out)
	return out
}

// MatMulTInto computes dst = A·Bᵀ with dst preallocated to (m, n). This
// is the hot shape of every nn.Linear projection (x·Wᵀ). On amd64 hosts
// with AVX2, every whole 4-column block runs on an assembly kernel that
// reproduces matmulTRows' float32 rounding sequence exactly (VMULPS
// then VADDPS, never FMA, k ascending from +0), so the output is
// bitwise-identical either way. The kernel wins from a single row at
// the serving shapes (BenchmarkLinearSIMDCutoff), so there is no row
// cutoff. The row loop parallelizes above ParallelThresholds.MatMulRows.
func MatMulTInto(a, b, dst *Tensor) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: MatMulTInto requires rank-2 operands")
	}
	m, k := a.shape[0], a.shape[1]
	n := b.shape[0]
	if b.shape[1] != k {
		panic(fmt.Sprintf("tensor: MatMulTInto inner dimension mismatch %v x %v", a.shape, b.shape))
	}
	if dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulTInto dst shape %v, want [%d %d]", dst.shape, m, n))
	}
	ad, bd, cd := a.data, b.data, dst.data
	rows := matmulTRows
	if useSIMD && m > 0 && n >= 4 && k > 0 {
		rows = matmulTRowsSIMD
	}
	if m >= ParallelThresholds.MatMulRows && parallel.Degree() > 1 {
		parallel.ForChunked(m, 0, func(lo, hi int) { rows(ad, bd, cd, lo, hi, k, n) })
	} else {
		rows(ad, bd, cd, 0, m, k, n)
	}
}

// matmulTRows computes rows [lo,hi) of c = a·bᵀ, four output columns
// (B rows) at a time against one cached A row. It is the portable path
// and the reference the SIMD kernel is tested against bit for bit.
func matmulTRows(a, b, c []float32, lo, hi, k, n int) {
	for i := lo; i < hi; i++ {
		arow := a[i*k : i*k+k]
		crow := c[i*n : i*n+n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b[(j+0)*k : (j+0)*k+k]
			b1 := b[(j+1)*k : (j+1)*k+k]
			b2 := b[(j+2)*k : (j+2)*k+k]
			b3 := b[(j+3)*k : (j+3)*k+k]
			var s0, s1, s2, s3 float32
			for kk, av := range arow {
				s0 += av * b0[kk]
				s1 += av * b1[kk]
				s2 += av * b2[kk]
				s3 += av * b3[kk]
			}
			crow[j], crow[j+1], crow[j+2], crow[j+3] = s0, s1, s2, s3
		}
		for ; j < n; j++ {
			crow[j] = dot32(arow, b[j*k:j*k+k])
		}
	}
}

// MatVec computes y = A·x for A (m,k) and x of length k, returning shape
// [m].
func MatVec(a, x *Tensor) *Tensor {
	if a.Rank() != 2 {
		panic("tensor: MatVec requires rank-2 matrix")
	}
	m, k := a.shape[0], a.shape[1]
	if x.Len() != k {
		panic(fmt.Sprintf("tensor: MatVec dimension mismatch %v x len %d", a.shape, x.Len()))
	}
	out := New(m)
	for i := 0; i < m; i++ {
		out.data[i] = dot32(a.data[i*k:(i+1)*k], x.data)
	}
	return out
}

// Linear computes x·Wᵀ + bias for x (n, in), W (out, in) and bias [out]
// (bias may be nil). This matches the PyTorch nn.Linear weight layout so
// trained parameters round-trip naturally.
func Linear(x, w, bias *Tensor) *Tensor {
	out := MatMulT(x, w)
	if bias != nil {
		AddRowBiasInPlace(out, bias)
	}
	return out
}

// LinearInto is Linear writing into dst (n, out), overwriting it.
func LinearInto(x, w, bias, dst *Tensor) {
	MatMulTInto(x, w, dst)
	if bias != nil {
		AddRowBiasInPlace(dst, bias)
	}
}
