// Package parallel provides a small work-sharing runtime used by the
// compute-heavy parts of the repository: blocked matrix multiplication,
// temporal neighbor sampling, and the concurrent embedding cache.
//
// It plays the role that OpenMP and Intel TBB play in the original TGOpt
// C++ extension. The primitives are deliberately simple: structured
// fork-join parallel-for helpers that spawn a bounded number of
// goroutines. The helpers also run chunks on the calling goroutine, so
// nesting them never deadlocks; it merely oversubscribes slightly, which
// the Go scheduler absorbs. All helpers fall back to a serial loop when
// the configured parallelism is 1 or the trip count is too small to
// amortize goroutine startup.
//
// # Panic propagation
//
// A panic inside a parallel body never wedges the caller: worker
// goroutines recover, the remaining workers drain, and the first
// recovered panic is re-raised on the calling goroutine — as a
// *WorkerPanic carrying the original value and worker stack — once
// every sibling has finished. Serial fallback paths run the body on the
// calling goroutine, so their panics propagate natively, unwrapped.
package parallel

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// MinParallelWork is the smallest trip count for which the parallel-for
// helpers bother to fan out. Below it, scheduling overhead dominates.
const MinParallelWork = 256

var defaultDegree atomic.Int64

func init() { defaultDegree.Store(int64(runtime.GOMAXPROCS(0))) }

// Degree reports the process-wide parallelism degree used by the
// package-level helpers.
func Degree() int { return int(defaultDegree.Load()) }

// SetDegree overrides the process-wide parallelism degree. n <= 0 resets
// it to GOMAXPROCS. It returns the previous degree, so callers can
// restore it (tests use this to force serial or oversubscribed runs).
func SetDegree(n int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return int(defaultDegree.Swap(int64(n)))
}

// WorkerPanic wraps a panic recovered from a parallel worker goroutine.
// It is re-raised on the goroutine that called ForChunked/Do, where the
// worker's own stack is already gone; Stack
// preserves it for debugging.
type WorkerPanic struct {
	Value any    // the value passed to panic on the worker
	Stack []byte // the worker's stack at the point of the panic
}

func (p *WorkerPanic) Error() string {
	return fmt.Sprintf("parallel: worker panic: %v", p.Value)
}

// capture runs fn, recording a recovered panic into first (keeping only
// the earliest). An already-wrapped *WorkerPanic (from a nested parallel
// region re-raising) is forwarded without double-wrapping.
func capture(first *atomic.Pointer[WorkerPanic], fn func()) {
	defer func() {
		if r := recover(); r != nil {
			wp, ok := r.(*WorkerPanic)
			if !ok {
				wp = &WorkerPanic{Value: r, Stack: debug.Stack()}
			}
			first.CompareAndSwap(nil, wp)
		}
	}()
	fn()
}

// rethrow re-raises the first captured panic, if any.
func rethrow(first *atomic.Pointer[WorkerPanic]) {
	if wp := first.Load(); wp != nil {
		panic(wp)
	}
}

// For executes body(i) for every i in [0, n), potentially in parallel.
// body must be safe to call concurrently for distinct i. For returns
// after every iteration has completed.
func For(n int, body func(i int)) {
	ForChunked(n, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// ForChunked splits [0, n) into contiguous chunks and executes
// body(lo, hi) for each chunk, potentially in parallel. chunk <= 0 picks
// a chunk size yielding roughly 2 chunks per worker. The serial fallback
// is a single body(0, n) call.
//
// At most Degree() workers run concurrently regardless of the chunk
// count: workers (the calling goroutine plus up to Degree()-1 spawned
// ones) pull chunks from a shared counter, so a tiny caller-provided
// chunk cannot cause unbounded goroutine growth. Because the calling
// goroutine is itself a worker, nested use is safe. If a body panics,
// the remaining chunks are abandoned, every in-flight sibling finishes,
// and the first panic is re-raised as a *WorkerPanic.
func ForChunked(n, chunk int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	degree := Degree()
	if degree == 1 || n < MinParallelWork {
		body(0, n)
		return
	}
	if chunk <= 0 {
		chunk = n / (2 * degree)
		if chunk < 1 {
			chunk = 1
		}
	}
	if chunk >= n {
		body(0, n)
		return
	}
	nchunks := (n + chunk - 1) / chunk
	workers := degree - 1 // the calling goroutine is the final worker
	if workers > nchunks-1 {
		workers = nchunks - 1
	}
	var next atomic.Int64
	var first atomic.Pointer[WorkerPanic]
	run := func() {
		for first.Load() == nil {
			c := int(next.Add(1)) - 1
			if c >= nchunks {
				return
			}
			lo := c * chunk
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			body(lo, hi)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			capture(&first, run)
		}()
	}
	capture(&first, run)
	wg.Wait()
	rethrow(&first)
}

// Do runs the given functions, potentially concurrently, and returns when
// all have finished. It is a structured fork-join for heterogeneous
// tasks; the last function runs on the calling goroutine. If any
// function panics, the rest still run to completion and the first panic
// is re-raised as a *WorkerPanic after all have finished.
func Do(fns ...func()) {
	switch len(fns) {
	case 0:
		return
	case 1:
		fns[0]()
		return
	}
	if Degree() == 1 {
		for _, fn := range fns {
			fn()
		}
		return
	}
	var wg sync.WaitGroup
	var first atomic.Pointer[WorkerPanic]
	for _, fn := range fns[:len(fns)-1] {
		fn := fn
		wg.Add(1)
		go func() {
			defer wg.Done()
			capture(&first, fn)
		}()
	}
	capture(&first, fns[len(fns)-1])
	wg.Wait()
	rethrow(&first)
}
