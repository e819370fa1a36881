GO ?= go

.PHONY: build test check race bench bench-cache bench-quant bench-deep bench-swap microbench

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Full PR gate: vet + build + tests + race checks on the concurrency-
# sensitive packages (parallel runtime, serving middleware, cache).
check:
	./scripts/check.sh

race:
	$(GO) vet ./... && $(GO) test -race ./internal/parallel/... ./internal/serve/... ./internal/shard/...

# Committed perf artifact: kernel + end-to-end report as BENCH_<n>.json
# at the repo root (see scripts/bench.sh and DESIGN.md §9).
bench:
	./scripts/bench.sh

# Committed cache-policy artifact: memo-cache hit rate vs byte budget
# on a Zipf-skewed trace, FIFO vs TinyLFU admission (BENCH_3.json, see
# DESIGN.md §12).
bench-cache:
	$(GO) run ./cmd/tgopt-bench cachesweep -o BENCH_3.json

# Committed quantized-path artifact: int8 vs float32 kernel MB/s,
# e2e ns/edge and cache hit rate at equal byte budgets, plus the AP
# delta from the accuracy harness (BENCH_4.json, see DESIGN.md §14).
bench-quant:
	./scripts/bench.sh quant

# Committed deep-invalidation artifact: 3-layer serving under live
# ingest, selective transitive invalidation vs the conservative deep
# clear — per-layer hit rates and ns/edge at several ingest rates
# (BENCH_5.json, see DESIGN.md §15).
bench-deep:
	./scripts/bench.sh deep

# Committed hot-swap artifact: online-learning swap under serving
# load — cache re-warm cost and swap pause at several cadences, plus
# bitwise post-swap spot checks (BENCH_6.json, see DESIGN.md §16).
bench-swap:
	./scripts/bench.sh swap

# In-place Go microbenchmarks (no artifact).
microbench:
	$(GO) test -bench=. -benchmem ./internal/tensor/
