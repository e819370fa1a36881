package tensor

// useSIMD selects the AVX2 projection kernel in MatMulTInto. It is set
// once at init from what the CPU and OS report; tests switch it off to
// run the Go fallback on AVX2 hosts.
var useSIMD = hasAVX2()

// hasAVX2 reports whether the CPU implements AVX2 and the OS saves the
// YMM registers across context switches (CPUID.1:ECX.OSXSAVE, AVX and
// XCR0 bits 1-2, then CPUID.7.0:EBX.AVX2).
func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 || xgetbv()&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)

//go:noescape
func packPanel4(dst, src *float32, lds, kc int)

//go:noescape
func linearKernel4x16(a *float32, lda int, p *float32, kc int, c *float32, ldc int, resume bool)

const (
	// panelCols is the width of one packed Wᵀ panel: two YMM registers
	// of output columns per row.
	panelCols = 16
	// panelK bounds the k extent of one packed panel, so the pack
	// buffer is a fixed 8 KiB stack array; longer rows run in k blocks
	// that resume from the partial sums stored in c (a float32 store
	// and reload is exact, so the rounding sequence is unchanged).
	panelK = 128
)

// matmulTRowsSIMD computes rows [lo,hi) of c = a·bᵀ like matmulTRows,
// bitwise-identically. Every whole 4-column block runs on the AVX2
// micro-kernel against 16-column panels of bᵀ packed per call; the n%4
// tail columns, which matmulTRows sums through the 4-way-split dot32,
// stay on dot32.
func matmulTRowsSIMD(a, b, c []float32, lo, hi, k, n int) {
	n4 := n &^ 3
	// The assembly reads and writes past the element it is handed;
	// these checks bound every access it makes.
	_, _, _ = a[hi*k-1], b[n*k-1], c[hi*n-1]
	var panel [panelK * panelCols]float32
	var aTile [4 * panelK]float32
	var cTile [4 * panelCols]float32
	for j0 := 0; j0 < n4; j0 += panelCols {
		w := min(panelCols, n4-j0)
		for k0 := 0; k0 < k; k0 += panelK {
			kc := min(panelK, k-k0)
			packPanel(panel[:kc*panelCols], b, j0, w, k0, kc, k)
			resume := k0 > 0
			for i := lo; i < hi; i += 4 {
				rows := min(4, hi-i)
				if rows == 4 && w == panelCols {
					linearKernel4x16(&a[i*k+k0], k, &panel[0], kc, &c[i*n+j0], n, resume)
					continue
				}
				// A partial block (fewer than four rows, or the last
				// panel narrower than 16 columns) runs through stack
				// tiles, so the kernel touches nothing outside it. The
				// padding rows of aTile are never written and stay 0.
				ap, lda := &a[i*k+k0], k
				if rows < 4 {
					for r := 0; r < rows; r++ {
						copy(aTile[r*panelK:r*panelK+kc], a[(i+r)*k+k0:])
					}
					ap, lda = &aTile[0], panelK
				}
				if resume {
					for r := 0; r < rows; r++ {
						copy(cTile[r*panelCols:r*panelCols+w], c[(i+r)*n+j0:])
					}
				}
				linearKernel4x16(ap, lda, &panel[0], kc, &cTile[0], panelCols, resume)
				for r := 0; r < rows; r++ {
					copy(c[(i+r)*n+j0:(i+r)*n+j0+w], cTile[r*panelCols:])
				}
			}
		}
	}
	for i := lo; i < hi && n4 < n; i++ {
		arow := a[i*k : i*k+k]
		for j := n4; j < n; j++ {
			c[i*n+j] = dot32(arow, b[j*k:j*k+k])
		}
	}
}

// packPanel writes columns [j0, j0+w) of bᵀ, k range [k0, k0+kc), into
// dst as kc rows of panelCols floats; columns past w (a multiple of 4)
// are zero.
func packPanel(dst, b []float32, j0, w, k0, kc, k int) {
	if w < panelCols {
		clear(dst)
	}
	_ = dst[(kc-1)*panelCols+w-1]
	_ = b[(j0+w-1)*k+k0+kc-1]
	for col := 0; col < w; col += 4 {
		packPanel4(&dst[col], &b[(j0+col)*k+k0], k, kc)
	}
}
