package core

import (
	"math"
	"testing"

	"tgopt/internal/nn"
	"tgopt/internal/tensor"
)

// IntervalTimeTable is the time-encoding lookup table of Zhou et al.
// (IPDPS 2022, reference [41] of the paper): the Δt range is split into
// a fixed number of intervals (hardcoded to 128 in their design) and
// every delta is encoded as its interval's representative value.
//
// It is implemented here as the related-work comparator the paper
// positions TGOpt against: unlike TGOpt's dense window (§4.3), which
// returns bit-exact encodings for in-window deltas and falls back to
// the true computation otherwise, the interval table *quantizes* —
// every lookup is O(1) but the result differs from Φ(Δt) whenever Δt is
// not exactly a representative, altering model semantics. The accuracy
// tests quantify that difference; the benchmarks compare the cost.
type IntervalTimeTable struct {
	enc       *nn.TimeEncoder
	intervals int
	width     float64        // interval width over [0, maxDelta]
	table     *tensor.Tensor // (intervals, d) encodings of midpoints
}

// NewIntervalTimeTable builds a table of `intervals` buckets covering
// [0, maxDelta]. Zhou et al. use 128 intervals.
func NewIntervalTimeTable(enc *nn.TimeEncoder, intervals int, maxDelta float64) *IntervalTimeTable {
	if intervals < 1 {
		panic("core: interval table needs >= 1 intervals")
	}
	if maxDelta <= 0 {
		panic("core: interval table needs positive maxDelta")
	}
	t := &IntervalTimeTable{
		enc:       enc,
		intervals: intervals,
		width:     maxDelta / float64(intervals),
	}
	mids := make([]float64, intervals)
	for i := range mids {
		mids[i] = (float64(i) + 0.5) * t.width
	}
	t.table = enc.Encode(mids)
	return t
}

// Intervals returns the bucket count.
func (t *IntervalTimeTable) Intervals() int { return t.intervals }

// EncodeInto fills dst (len(dts), d) with quantized encodings. Deltas
// beyond the covered range clamp to the last interval; negative deltas
// clamp to the first. Unlike TimeTable there is no exact-compute
// fallback — that is the point of the comparison.
func (t *IntervalTimeTable) EncodeInto(dts []float64, dst *tensor.Tensor) {
	d := t.enc.Dim()
	tab := t.table.Data()
	for i, dt := range dts {
		idx := int(dt / t.width)
		if idx < 0 {
			idx = 0
		}
		if idx >= t.intervals {
			idx = t.intervals - 1
		}
		copy(dst.Data()[i*d:(i+1)*d], tab[idx*d:(idx+1)*d])
	}
}

// Encode is EncodeInto with allocation.
func (t *IntervalTimeTable) Encode(dts []float64) *tensor.Tensor {
	out := tensor.New(len(dts), t.enc.Dim())
	t.EncodeInto(dts, out)
	return out
}

// QuantizationError returns the mean and max absolute elementwise error
// of the quantized encodings against the exact Φ over the given deltas —
// the semantic drift TGOpt avoids by construction.
func (t *IntervalTimeTable) QuantizationError(dts []float64) (mean, max float64) {
	exact := t.enc.Encode(dts)
	approx := t.Encode(dts)
	var sum float64
	n := exact.Len()
	for i := 0; i < n; i++ {
		e := math.Abs(float64(exact.Data()[i]) - float64(approx.Data()[i]))
		sum += e
		if e > max {
			max = e
		}
	}
	if n > 0 {
		mean = sum / float64(n)
	}
	return mean, max
}

func TestIntervalTableQuantizes(t *testing.T) {
	enc := nn.NewTimeEncoder(8)
	it := NewIntervalTimeTable(enc, 128, 10_000)
	if it.Intervals() != 128 {
		t.Fatalf("Intervals = %d", it.Intervals())
	}
	// Every delta within one interval maps to the same encoding.
	a := it.Encode([]float64{10})
	b := it.Encode([]float64{50}) // same 78.125-wide interval as 10
	if !a.AllClose(b, 0) {
		t.Fatal("same-interval deltas encoded differently")
	}
	// Representative (midpoint) deltas are exact.
	mid := 10_000.0 / 128 / 2
	exact := enc.Encode([]float64{mid})
	if !it.Encode([]float64{mid}).AllClose(exact, 1e-7) {
		t.Fatal("midpoint encoding not exact")
	}
}

func TestIntervalTableClamps(t *testing.T) {
	enc := nn.NewTimeEncoder(4)
	it := NewIntervalTimeTable(enc, 8, 100)
	lo := it.Encode([]float64{-5})
	first := it.Encode([]float64{0})
	if !lo.AllClose(first, 0) {
		t.Fatal("negative delta did not clamp to first interval")
	}
	hi := it.Encode([]float64{1e9})
	last := it.Encode([]float64{99.9})
	if !hi.AllClose(last, 0) {
		t.Fatal("overflow delta did not clamp to last interval")
	}
}

// TestIntervalTableAltersSemanticsButTGOptDoesNot is the related-work
// contrast at the heart of §4.3 and §6: the 128-interval table of Zhou
// et al. [41] introduces real encoding error, while TGOpt's dense
// window is exact on the same inputs.
func TestIntervalTableAltersSemanticsButTGOptDoesNot(t *testing.T) {
	enc := nn.NewTimeEncoder(16)
	interval := NewIntervalTimeTable(enc, 128, 10_000)
	window := NewTimeTable(enc, 10_000)

	r := tensor.NewRNG(1)
	dts := make([]float64, 2000)
	for i := range dts {
		dts[i] = float64(r.Intn(10_000))
	}
	_, maxErr := interval.QuantizationError(dts)
	if maxErr < 1e-3 {
		t.Fatalf("interval table suspiciously accurate: max error %g", maxErr)
	}
	out, hits := window.Encode(dts)
	if hits != len(dts) {
		t.Fatalf("window hits = %d, want all", hits)
	}
	if !out.AllClose(enc.Encode(dts), 0) {
		t.Fatal("TGOpt window table is not exact")
	}
}

func TestIntervalTableValidation(t *testing.T) {
	enc := nn.NewTimeEncoder(4)
	for _, f := range []func(){
		func() { NewIntervalTimeTable(enc, 0, 100) },
		func() { NewIntervalTimeTable(enc, 8, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid interval table accepted")
				}
			}()
			f()
		}()
	}
}

func TestIntervalTableQuantizationErrorEmpty(t *testing.T) {
	enc := nn.NewTimeEncoder(4)
	it := NewIntervalTimeTable(enc, 8, 100)
	mean, max := it.QuantizationError(nil)
	if mean != 0 || max != 0 {
		t.Fatal("empty error not zero")
	}
}
