package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 7, MinParallelWork - 1, MinParallelWork, 4096} {
		seen := make([]int32, n)
		For(n, func(i int) { atomic.AddInt32(&seen[i], 1) })
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: index %d visited %d times, want 1", n, i, c)
			}
		}
	}
}

func TestForChunkedCoversAllIndicesExactlyOnce(t *testing.T) {
	prop := func(n uint16, chunk uint8) bool {
		nn := int(n) % 5000
		seen := make([]int32, nn)
		ForChunked(nn, int(chunk), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&seen[i], 1)
			}
		})
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestForChunkedChunksAreOrderedAndDisjoint(t *testing.T) {
	var total atomic.Int64
	ForChunked(10000, 97, func(lo, hi int) {
		if lo >= hi {
			t.Errorf("empty or inverted chunk [%d,%d)", lo, hi)
		}
		total.Add(int64(hi - lo))
	})
	if total.Load() != 10000 {
		t.Fatalf("chunks cover %d elements, want 10000", total.Load())
	}
}

func TestForChunkedZeroAndNegative(t *testing.T) {
	called := false
	ForChunked(0, 10, func(lo, hi int) { called = true })
	ForChunked(-5, 10, func(lo, hi int) { called = true })
	if called {
		t.Fatal("body called for non-positive n")
	}
}

func TestDoRunsAllFunctions(t *testing.T) {
	var count atomic.Int32
	fns := make([]func(), 17)
	for i := range fns {
		fns[i] = func() { count.Add(1) }
	}
	Do(fns...)
	if count.Load() != 17 {
		t.Fatalf("ran %d functions, want 17", count.Load())
	}
	Do() // no-op
	Do(func() { count.Add(1) })
	if count.Load() != 18 {
		t.Fatalf("single-function Do did not run")
	}
}

func TestNestedForDoesNotDeadlock(t *testing.T) {
	var count atomic.Int64
	For(600, func(i int) {
		ForChunked(600, 50, func(lo, hi int) {
			count.Add(int64(hi - lo))
		})
	})
	if count.Load() != 600*600 {
		t.Fatalf("nested loops executed %d iterations, want %d", count.Load(), 600*600)
	}
}

func TestSetDegreeSerialFallback(t *testing.T) {
	prev := SetDegree(1)
	defer SetDegree(prev)
	if Degree() != 1 {
		t.Fatalf("Degree() = %d after SetDegree(1)", Degree())
	}
	// In serial mode the body must still cover everything, on this goroutine.
	n := 0
	For(1000, func(i int) { n++ }) // not atomic: safe only because serial
	if n != 1000 {
		t.Fatalf("serial For executed %d iterations, want 1000", n)
	}
}

func TestSetDegreeResetsToGOMAXPROCS(t *testing.T) {
	prev := SetDegree(3)
	if Degree() != 3 {
		t.Fatalf("Degree() = %d, want 3", Degree())
	}
	SetDegree(0)
	if Degree() < 1 {
		t.Fatalf("Degree() = %d after reset, want >= 1", Degree())
	}
	SetDegree(prev)
}

func TestForChunkedPanicPropagates(t *testing.T) {
	prev := SetDegree(4)
	defer SetDegree(prev)
	recovered := func() (r any) {
		defer func() { r = recover() }()
		ForChunked(MinParallelWork*4, 7, func(lo, hi int) {
			if lo >= MinParallelWork {
				panic(lo)
			}
		})
		return nil
	}()
	wp, ok := recovered.(*WorkerPanic)
	if !ok {
		t.Fatalf("recovered %T %v, want *WorkerPanic", recovered, recovered)
	}
	if _, ok := wp.Value.(int); !ok {
		t.Fatalf("WorkerPanic.Value = %v, want the body's int", wp.Value)
	}
}

func TestDoPanicPropagates(t *testing.T) {
	prev := SetDegree(4)
	defer SetDegree(prev)
	var ran atomic.Int32
	recovered := func() (r any) {
		defer func() { r = recover() }()
		Do(
			func() { ran.Add(1) },
			func() { panic("do boom") },
			func() { ran.Add(1) },
			func() { ran.Add(1) },
		)
		return nil
	}()
	wp, ok := recovered.(*WorkerPanic)
	if !ok {
		t.Fatalf("recovered %T, want *WorkerPanic", recovered)
	}
	if wp.Value != "do boom" {
		t.Fatalf("WorkerPanic.Value = %v", wp.Value)
	}
	if ran.Load() != 3 {
		t.Fatalf("sibling functions ran %d times, want 3", ran.Load())
	}
}

func TestNestedPanicNotDoubleWrapped(t *testing.T) {
	prev := SetDegree(4)
	defer SetDegree(prev)
	recovered := func() (r any) {
		defer func() { r = recover() }()
		Do(
			func() {
				ForChunked(MinParallelWork*2, 3, func(lo, hi int) { panic("inner") })
			},
			func() {},
		)
		return nil
	}()
	wp, ok := recovered.(*WorkerPanic)
	if !ok {
		t.Fatalf("recovered %T, want *WorkerPanic", recovered)
	}
	if wp.Value != "inner" {
		t.Fatalf("WorkerPanic.Value = %v, want unwrapped \"inner\"", wp.Value)
	}
}

func TestSerialPanicUnwrapped(t *testing.T) {
	prev := SetDegree(1)
	defer SetDegree(prev)
	defer func() {
		if r := recover(); r != "serial boom" {
			t.Fatalf("serial path recovered %v, want the raw value", r)
		}
	}()
	ForChunked(MinParallelWork*2, 0, func(lo, hi int) { panic("serial boom") })
}

func TestForChunkedBoundedWorkers(t *testing.T) {
	// The regression: chunk=1 with a large n used to spawn one goroutine
	// per chunk (~n goroutines). Workers must now be capped by Degree.
	const degree = 4
	prev := SetDegree(degree)
	defer SetDegree(prev)
	before := runtime.NumGoroutine()
	var inFlight, maxInFlight atomic.Int32
	ForChunked(100000, 1, func(lo, hi int) {
		cur := inFlight.Add(1)
		for {
			m := maxInFlight.Load()
			if cur <= m || maxInFlight.CompareAndSwap(m, cur) {
				break
			}
		}
		inFlight.Add(-1)
	})
	if got := maxInFlight.Load(); got > degree {
		t.Fatalf("observed %d concurrent bodies, degree %d", got, degree)
	}
	// Goroutine count during the loop is harder to observe exactly, but
	// afterwards nothing may linger.
	after := runtime.NumGoroutine()
	if after > before+degree {
		t.Fatalf("goroutines grew from %d to %d", before, after)
	}
}

func BenchmarkForOverhead(b *testing.B) {
	sink := make([]float64, 1<<14)
	b.Run("serial", func(b *testing.B) {
		prev := SetDegree(1)
		defer SetDegree(prev)
		for i := 0; i < b.N; i++ {
			ForChunked(len(sink), 0, func(lo, hi int) {
				for j := lo; j < hi; j++ {
					sink[j] += 1
				}
			})
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ForChunked(len(sink), 0, func(lo, hi int) {
				for j := lo; j < hi; j++ {
					sink[j] += 1
				}
			})
		}
	})
}

// The machine running tests may have a single CPU, in which case the
// package-level helpers short-circuit to the serial path and the
// fan-out code never executes. Force a higher degree to exercise it.

func TestForChunkedParallelPathForced(t *testing.T) {
	prev := SetDegree(4)
	defer SetDegree(prev)
	var count atomic.Int64
	seen := make([]int32, 10000)
	ForChunked(len(seen), 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&seen[i], 1)
		}
		count.Add(int64(hi - lo))
	})
	if count.Load() != int64(len(seen)) {
		t.Fatalf("covered %d of %d", count.Load(), len(seen))
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
}

func TestForChunkedExplicitChunkParallel(t *testing.T) {
	prev := SetDegree(8)
	defer SetDegree(prev)
	var total atomic.Int64
	ForChunked(MinParallelWork*3, 17, func(lo, hi int) {
		total.Add(int64(hi - lo))
	})
	if total.Load() != MinParallelWork*3 {
		t.Fatalf("total = %d", total.Load())
	}
	// Chunk larger than n falls back to one call.
	calls := 0
	ForChunked(MinParallelWork, MinParallelWork*2, func(lo, hi int) { calls++ })
	if calls != 1 {
		t.Fatalf("oversized chunk made %d calls", calls)
	}
}

func TestDoParallelPathForced(t *testing.T) {
	prev := SetDegree(4)
	defer SetDegree(prev)
	var count atomic.Int32
	fns := make([]func(), 9)
	for i := range fns {
		fns[i] = func() { count.Add(1) }
	}
	Do(fns...)
	if count.Load() != 9 {
		t.Fatalf("ran %d of 9", count.Load())
	}
}

func TestNestedParallelForcedDegree(t *testing.T) {
	prev := SetDegree(3)
	defer SetDegree(prev)
	var count atomic.Int64
	For(MinParallelWork*2, func(i int) {
		ForChunked(MinParallelWork*2, 0, func(lo, hi int) {
			count.Add(int64(hi - lo))
		})
	})
	want := int64(MinParallelWork * 2 * MinParallelWork * 2)
	if count.Load() != want {
		t.Fatalf("nested executed %d, want %d", count.Load(), want)
	}
}
