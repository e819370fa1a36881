package tensor

import (
	"fmt"
	"math"
)

// binaryCheck panics unless a and b have the same element count.
func binaryCheck(op string, a, b *Tensor) {
	if len(a.data) != len(b.data) {
		panic(fmt.Sprintf("tensor: %s size mismatch %v vs %v", op, a.shape, b.shape))
	}
}

// Add returns a + b elementwise.
func Add(a, b *Tensor) *Tensor {
	binaryCheck("Add", a, b)
	out := New(a.shape...)
	for i := range a.data {
		out.data[i] = a.data[i] + b.data[i]
	}
	return out
}

// AddInPlace sets a = a + b elementwise and returns a.
func AddInPlace(a, b *Tensor) *Tensor {
	binaryCheck("AddInPlace", a, b)
	for i := range a.data {
		a.data[i] += b.data[i]
	}
	return a
}

// Sub returns a - b elementwise.
func Sub(a, b *Tensor) *Tensor {
	binaryCheck("Sub", a, b)
	out := New(a.shape...)
	for i := range a.data {
		out.data[i] = a.data[i] - b.data[i]
	}
	return out
}

// Mul returns a * b elementwise (Hadamard product).
func Mul(a, b *Tensor) *Tensor {
	binaryCheck("Mul", a, b)
	out := New(a.shape...)
	for i := range a.data {
		out.data[i] = a.data[i] * b.data[i]
	}
	return out
}

// Div returns a / b elementwise.
func Div(a, b *Tensor) *Tensor {
	binaryCheck("Div", a, b)
	out := New(a.shape...)
	for i := range a.data {
		out.data[i] = a.data[i] / b.data[i]
	}
	return out
}

// Scale returns a * s elementwise.
func Scale(a *Tensor, s float32) *Tensor {
	out := New(a.shape...)
	for i := range a.data {
		out.data[i] = a.data[i] * s
	}
	return out
}

// AXPY performs a += alpha*b elementwise and returns a.
func AXPY(alpha float32, b, a *Tensor) *Tensor {
	binaryCheck("AXPY", a, b)
	for i := range a.data {
		a.data[i] += alpha * b.data[i]
	}
	return a
}

// AddRowBias adds bias (shape [w]) to every row of a rank-2 or rank-3
// tensor whose trailing dimension is w, returning a new tensor.
func AddRowBias(a, bias *Tensor) *Tensor {
	w := a.Dim(-1)
	if bias.Len() != w {
		panic(fmt.Sprintf("tensor: AddRowBias bias length %d != trailing dim %d", bias.Len(), w))
	}
	out := New(a.shape...)
	for base := 0; base < len(a.data); base += w {
		for j := 0; j < w; j++ {
			out.data[base+j] = a.data[base+j] + bias.data[j]
		}
	}
	return out
}

// AddRowBiasInPlace adds bias to every row of a in place and returns a.
func AddRowBiasInPlace(a, bias *Tensor) *Tensor {
	w := a.Dim(-1)
	if bias.Len() != w {
		panic(fmt.Sprintf("tensor: AddRowBiasInPlace bias length %d != trailing dim %d", bias.Len(), w))
	}
	// Local slices keep the stores from forcing a reload of a.data.
	data, b := a.data, bias.data[:w]
	for base := 0; base < len(data); base += w {
		row := data[base : base+w]
		for j, v := range b {
			row[j] += v
		}
	}
	return a
}

// Sum returns the sum of all elements (accumulated in float64 for
// stability).
func Sum(a *Tensor) float64 {
	s := 0.0
	for _, v := range a.data {
		s += float64(v)
	}
	return s
}

// Mean returns the arithmetic mean of all elements.
func Mean(a *Tensor) float64 {
	if len(a.data) == 0 {
		return 0
	}
	return Sum(a) / float64(len(a.data))
}

// SumRows reduces a rank-2 tensor (n, w) along dim 0, returning shape [w].
func SumRows(a *Tensor) *Tensor {
	if a.Rank() != 2 {
		panic("tensor: SumRows requires rank 2")
	}
	n, w := a.shape[0], a.shape[1]
	out := New(w)
	for i := 0; i < n; i++ {
		row := a.data[i*w : (i+1)*w]
		for j, v := range row {
			out.data[j] += v
		}
	}
	return out
}

// SumLast reduces along the trailing dimension: (.., w) -> (..) with the
// result flattened to rank 1 of length Len()/w.
func SumLast(a *Tensor) *Tensor {
	w := a.Dim(-1)
	rows := a.Len() / w
	out := New(rows)
	for i := 0; i < rows; i++ {
		s := float32(0)
		for j := 0; j < w; j++ {
			s += a.data[i*w+j]
		}
		out.data[i] = s
	}
	return out
}

// Transpose returns the transpose of a rank-2 tensor.
func Transpose(a *Tensor) *Tensor {
	if a.Rank() != 2 {
		panic("tensor: Transpose requires rank 2")
	}
	n, w := a.shape[0], a.shape[1]
	out := New(w, n)
	for i := 0; i < n; i++ {
		for j := 0; j < w; j++ {
			out.data[j*n+i] = a.data[i*w+j]
		}
	}
	return out
}

// ConcatCols concatenates rank-2 tensors with equal row counts along the
// column (trailing) dimension.
func ConcatCols(ts ...*Tensor) *Tensor {
	if len(ts) == 0 {
		panic("tensor: ConcatCols of nothing")
	}
	n := ts[0].shape[0]
	total := 0
	for _, t := range ts {
		if t.Rank() != 2 {
			panic("tensor: ConcatCols requires rank 2")
		}
		if t.shape[0] != n {
			panic(fmt.Sprintf("tensor: ConcatCols row mismatch %d vs %d", t.shape[0], n))
		}
		total += t.shape[1]
	}
	out := New(n, total)
	ConcatColsInto(out, ts...)
	return out
}

// ConcatColsInto is ConcatCols writing into dst, which must have shape
// (rows, Σ widths).
func ConcatColsInto(dst *Tensor, ts ...*Tensor) {
	if len(ts) == 0 {
		panic("tensor: ConcatColsInto of nothing")
	}
	n := ts[0].shape[0]
	total := dst.shape[1]
	sum := 0
	for _, t := range ts {
		if t.Rank() != 2 || t.shape[0] != n {
			panic("tensor: ConcatColsInto operand shape mismatch")
		}
		sum += t.shape[1]
	}
	if dst.Rank() != 2 || dst.shape[0] != n || sum != total {
		panic(fmt.Sprintf("tensor: ConcatColsInto dst shape %v, want [%d %d]", dst.shape, n, sum))
	}
	for i := 0; i < n; i++ {
		row := dst.data[i*total : (i+1)*total]
		off := 0
		for _, t := range ts {
			w := t.shape[1]
			copy(row[off:off+w], t.data[i*w:(i+1)*w])
			off += w
		}
	}
}

// ConcatRows concatenates rank-2 tensors with equal column counts along
// the row dimension.
func ConcatRows(ts ...*Tensor) *Tensor {
	if len(ts) == 0 {
		panic("tensor: ConcatRows of nothing")
	}
	w := ts[0].shape[1]
	rows := 0
	for _, t := range ts {
		if t.Rank() != 2 {
			panic("tensor: ConcatRows requires rank 2")
		}
		if t.shape[1] != w {
			panic(fmt.Sprintf("tensor: ConcatRows column mismatch %d vs %d", t.shape[1], w))
		}
		rows += t.shape[0]
	}
	out := New(rows, w)
	off := 0
	for _, t := range ts {
		copy(out.data[off:off+len(t.data)], t.data)
		off += len(t.data)
	}
	return out
}

// SplitCols splits a rank-2 tensor into pieces with the given column
// widths, which must sum to Dim(1). Each piece is a fresh tensor.
func SplitCols(a *Tensor, widths ...int) []*Tensor {
	if a.Rank() != 2 {
		panic("tensor: SplitCols requires rank 2")
	}
	n, w := a.shape[0], a.shape[1]
	sum := 0
	for _, wd := range widths {
		sum += wd
	}
	if sum != w {
		panic(fmt.Sprintf("tensor: SplitCols widths %v do not sum to %d", widths, w))
	}
	outs := make([]*Tensor, len(widths))
	off := 0
	for k, wd := range widths {
		out := New(n, wd)
		for i := 0; i < n; i++ {
			copy(out.data[i*wd:(i+1)*wd], a.data[i*w+off:i*w+off+wd])
		}
		outs[k] = out
		off += wd
	}
	return outs
}

// GatherRows selects rows of a rank-2 tensor (n, w) by index, producing
// shape (len(idx), w). Indices out of range panic.
func GatherRows(a *Tensor, idx []int) *Tensor {
	if a.Rank() != 2 {
		panic("tensor: GatherRows requires rank 2")
	}
	w := a.shape[1]
	out := New(len(idx), w)
	GatherRowsInto(a, idx, out)
	return out
}

// GatherRowsInto is GatherRows writing into dst, which must have shape
// (len(idx), w).
func GatherRowsInto(a *Tensor, idx []int, dst *Tensor) {
	w := a.shape[1]
	if dst.shape[0] != len(idx) || dst.shape[1] != w {
		panic(fmt.Sprintf("tensor: GatherRowsInto dst shape %v, want [%d %d]", dst.shape, len(idx), w))
	}
	for i, r := range idx {
		copy(dst.data[i*w:(i+1)*w], a.data[r*w:(r+1)*w])
	}
}

// ScatterAddRows adds each row of src (shape (n, w)) into dst row idx[i].
// Used by autograd to backpropagate through GatherRows.
func ScatterAddRows(dst *Tensor, idx []int, src *Tensor) {
	w := dst.shape[1]
	if src.shape[1] != w || src.shape[0] != len(idx) {
		panic(fmt.Sprintf("tensor: ScatterAddRows src shape %v, want [%d %d]", src.shape, len(idx), w))
	}
	for i, r := range idx {
		d := dst.data[r*w : (r+1)*w]
		s := src.data[i*w : (i+1)*w]
		for j := range d {
			d[j] += s[j]
		}
	}
}

// Cos returns cos(a) elementwise.
func Cos(a *Tensor) *Tensor {
	out := New(a.shape...)
	for i, v := range a.data {
		out.data[i] = float32(math.Cos(float64(v)))
	}
	return out
}

// Sin returns sin(a) elementwise.
func Sin(a *Tensor) *Tensor {
	out := New(a.shape...)
	for i, v := range a.data {
		out.data[i] = float32(math.Sin(float64(v)))
	}
	return out
}

// Exp returns e^a elementwise.
func Exp(a *Tensor) *Tensor {
	out := New(a.shape...)
	for i, v := range a.data {
		out.data[i] = float32(math.Exp(float64(v)))
	}
	return out
}

// Log returns ln(a) elementwise.
func Log(a *Tensor) *Tensor {
	out := New(a.shape...)
	for i, v := range a.data {
		out.data[i] = float32(math.Log(float64(v)))
	}
	return out
}

// Dot returns the inner product of two equal-length tensors, accumulated
// in float32 to match the rest of the compute path.
func Dot(a, b *Tensor) float32 {
	binaryCheck("Dot", a, b)
	return dot32(a.data, b.data)
}

func dot32(a, b []float32) float32 {
	var s float32
	n := len(a)
	i := 0
	for ; i+4 <= n; i += 4 {
		s += a[i]*b[i] + a[i+1]*b[i+1] + a[i+2]*b[i+2] + a[i+3]*b[i+3]
	}
	for ; i < n; i++ {
		s += a[i] * b[i]
	}
	return s
}
