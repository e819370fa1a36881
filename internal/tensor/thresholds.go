package tensor

// Thresholds collects the trip counts above which the dense kernels fan
// out across the parallel runtime. Below a threshold the kernel runs
// serially on the calling goroutine: for the small batches temporal
// inference produces, fork-join overhead (goroutine wakeup plus the
// chunk-counter contention) costs more than the parallelism recovers.
//
// The defaults were picked by benchmark on the shapes TGAT produces
// (tall-skinny operands, k ≲ 200): see BenchmarkMatMulSerialVsParallel.
// They can be overridden at startup —
// before any concurrent kernel use — for unusual hardware; the kernels
// read them on every call without synchronization.
type Thresholds struct {
	// MatMulRows is the minimum number of output rows for MatMulInto,
	// MatMulT and LinearInto to parallelize the row loop.
	MatMulRows int
}

// ParallelThresholds is the process-wide kernel fan-out configuration.
var ParallelThresholds = Thresholds{
	MatMulRows: 64,
}
