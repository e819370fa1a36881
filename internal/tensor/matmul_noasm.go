//go:build !amd64

package tensor

// useSIMD is false where there is no assembly kernel; MatMulTInto then
// always runs the Go loop.
var useSIMD = false

func matmulTRowsSIMD(a, b, c []float32, lo, hi, k, n int) {
	matmulTRows(a, b, c, lo, hi, k, n)
}
