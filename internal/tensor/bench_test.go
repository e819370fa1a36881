package tensor

import (
	"fmt"
	"testing"

	"tgopt/internal/parallel"
)

// Matrix-multiplication scaling across the shapes the TGAT layers
// actually produce: tall-skinny projections (many rows, modest inner
// and output dims).
func BenchmarkMatMul(b *testing.B) {
	r := NewRNG(1)
	for _, size := range []struct{ m, k, n int }{
		{64, 96, 64},
		{512, 96, 64},
		{4096, 96, 64},
		{4096, 192, 128},
	} {
		a := Rand(r, size.m, size.k)
		w := Rand(r, size.k, size.n)
		dst := New(size.m, size.n)
		b.Run(fmt.Sprintf("%dx%dx%d", size.m, size.k, size.n), func(b *testing.B) {
			b.SetBytes(int64(4 * (size.m*size.k + size.k*size.n + size.m*size.n)))
			for i := 0; i < b.N; i++ {
				MatMulInto(a, w, dst)
			}
		})
	}
}

// BenchmarkMatMulSerialVsParallel times LinearInto at the serving K/V
// projection shape (96→64) serially and fanned out, across row counts
// around ParallelThresholds.MatMulRows; it is the benchmark that
// threshold is picked from.
func BenchmarkMatMulSerialVsParallel(b *testing.B) {
	r := NewRNG(2)
	const k, n = 96, 64
	w := Rand(r, n, k)
	bias := Rand(r, n)
	for _, m := range []int{64, 256, 4096} {
		x := Rand(r, m, k)
		dst := New(m, n)
		b.Run(fmt.Sprintf("m=%d/parallel", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				LinearInto(x, w, bias, dst)
			}
		})
		b.Run(fmt.Sprintf("m=%d/serial", m), func(b *testing.B) {
			prev := parallel.SetDegree(1)
			defer parallel.SetDegree(prev)
			for i := 0; i < b.N; i++ {
				LinearInto(x, w, bias, dst)
			}
		})
	}
}

// BenchmarkLinearSIMDCutoff times the SIMD row kernel and the Go loop
// directly, bypassing the dispatch, at small row counts of the serving
// projection shapes. The SIMD kernel, packing included, wins from m=1,
// which is why MatMulTInto dispatches on no row count.
func BenchmarkLinearSIMDCutoff(b *testing.B) {
	if !useSIMD {
		b.Skip("no SIMD kernel on this host")
	}
	r := NewRNG(9)
	for _, shape := range []struct{ k, n int }{{96, 64}, {64, 64}, {32, 32}} {
		k, n := shape.k, shape.n
		w := Rand(r, n, k)
		for _, m := range []int{1, 2, 3, 4, 5, 8, 16} {
			x := Rand(r, m, k)
			dst := New(m, n)
			for _, path := range []struct {
				name string
				rows func(a, b, c []float32, lo, hi, k, n int)
			}{{"simd", matmulTRowsSIMD}, {"go", matmulTRows}} {
				b.Run(fmt.Sprintf("%dx%d/m=%d/%s", k, n, m, path.name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						path.rows(x.data, w.data, dst.data, 0, m, k, n)
					}
				})
			}
		}
	}
}

// BenchmarkMatMulKernels compares the naive and blocked A·B kernels on
// the tall-skinny shape the layer-1 projections produce.
func BenchmarkMatMulKernels(b *testing.B) {
	r := NewRNG(4)
	const m, k, n = 4096, 96, 64
	a := Rand(r, m, k)
	w := Rand(r, k, n)
	dst := New(m, n)
	bytes := int64(4 * (m*k + k*n + m*n))
	b.Run("naive", func(b *testing.B) {
		b.SetBytes(bytes)
		for i := 0; i < b.N; i++ {
			for row := 0; row < m; row++ {
				crow := dst.data[row*n : (row+1)*n]
				clear(crow)
				for kk := 0; kk < k; kk++ {
					av := a.data[row*k+kk]
					for j := 0; j < n; j++ {
						crow[j] += av * w.data[kk*n+j]
					}
				}
			}
		}
	})
	b.Run("blocked", func(b *testing.B) {
		b.SetBytes(bytes)
		for i := 0; i < b.N; i++ {
			MatMulInto(a, w, dst)
		}
	})
}

func BenchmarkMatMulT(b *testing.B) {
	r := NewRNG(3)
	x := Rand(r, 4096, 96)
	w := Rand(r, 128, 96) // nn.Linear layout
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulT(x, w)
	}
}

func BenchmarkSoftmax(b *testing.B) {
	r := NewRNG(4)
	a := Randn(r, 4096, 20)
	mask := make([]bool, a.Len())
	for i := range mask {
		mask[i] = i%5 != 0
	}
	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			SoftmaxLastDim(a)
		}
	})
	b.Run("masked", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			MaskedSoftmaxLastDim(a, mask)
		}
	})
}

func BenchmarkGatherRows(b *testing.B) {
	r := NewRNG(5)
	table := Rand(r, 10000, 64)
	idx := make([]int, 4096)
	for i := range idx {
		idx[i] = r.Intn(10000)
	}
	dst := New(len(idx), 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GatherRowsInto(table, idx, dst)
	}
}

func BenchmarkConcatCols(b *testing.B) {
	r := NewRNG(6)
	x := Rand(r, 4096, 32)
	y := Rand(r, 4096, 32)
	z := Rand(r, 4096, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ConcatCols(x, y, z)
	}
}

func BenchmarkElementwise(b *testing.B) {
	r := NewRNG(7)
	x := Rand(r, 1<<16)
	y := Rand(r, 1<<16)
	b.Run("Add", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			AddInPlace(x, y)
		}
	})
	b.Run("Cos", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Cos(x)
		}
	})
	b.Run("ReLU", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ReLU(x)
		}
	})
}

func BenchmarkRNG(b *testing.B) {
	r := NewRNG(8)
	b.Run("Uint64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r.Uint64()
		}
	})
	b.Run("NormFloat64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r.NormFloat64()
		}
	})
	b.Run("Pareto", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r.Pareto(1, 1.2)
		}
	})
}
