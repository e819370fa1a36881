#!/usr/bin/env bash
# Tier-1 verification plus race checks for the concurrency-sensitive
# packages (the parallel runtime, the serving middleware, the request
# micro-batcher, the sharded cache, the shard router, and the mutable
# dynamic graph) and
# the crash-safety suites (checkpoint envelope, fault injection, trainer
# resume). Run on every PR.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

echo "== arm64 cross-check (the !amd64 tensor fallback must keep building and vetting)"
GOTOOLCHAIN=local GOARCH=arm64 go vet ./internal/tensor/
GOTOOLCHAIN=local GOARCH=arm64 go build ./...

echo "== go test"
go test ./...

echo "== go test -race (concurrency-sensitive + fault-injection packages)"
go test -race ./internal/parallel/... ./internal/serve/... ./internal/core/... \
    ./internal/batcher/... ./internal/graph/... ./internal/shard/... \
    ./internal/stats/... ./internal/checkpoint/... ./internal/faultfs/... \
    ./internal/trainer/... ./internal/tensor/... ./internal/nn/... ./internal/tgat/...

echo "== shard chaos gate (panic injection, breaker cycle, restart-from-snapshot; race-enabled)"
go test -race -count=1 -run 'TestChaos|TestRouter|TestBreaker|TestServeSharded|TestServeHealth' \
    ./internal/shard/... ./internal/serve/...

echo "== spill-tier fault injection (crash mid-seal, bit flips, torn segments; race-enabled)"
go test -race -count=1 -run 'TestSpill|TestTieredCache|TestBatcherRetire' ./internal/core/ ./internal/batcher/

echo "== cache-policy sweep smoke (Zipf trace, TinyLFU >= FIFO at equal budget)"
go test -count=1 -run 'TestCacheSweep' ./internal/perfbench/

echo "== deep-invalidation gate (3-layer transitive invalidation exactness; race-enabled)"
go test -race -count=1 -run 'TestTransitive|TestSupport|TestDeepClearAll|TestServeOutOfOrderIngestConvergesToSortedDeep' \
    ./internal/core/ ./internal/serve/

echo "== hot-swap gate (atomic model swap under load: no mixed-version rows, no stale cache; race-enabled)"
go test -race -count=1 -run 'TestServeSwap|TestRouterSwap|TestRestartAfterSwap|TestEngineSwap|TestSpillRecoveryRejects|TestCacheSnapshotVersion' \
    ./internal/serve/ ./internal/shard/ ./internal/core/
go test -count=1 -run 'TestPublishLatest|TestLatestRejects|TestFineTune' ./internal/swap/

echo "== hot-swap sweep smoke (tgopt-bench swapsweep, bitwise post-swap spot checks)"
go test -count=1 -run 'TestSwapSweep' ./internal/perfbench/

echo "== quantized-path gate (int8 kernels/cache/snapshots under race; AP within 1pp of float32)"
go test -race -count=1 -run 'TestQuant' ./internal/core/ ./internal/nn/ ./internal/tensor/
go run ./cmd/tgopt-bench quantacc -max-ap-delta 0.01 > /dev/null

echo "== bench smoke (compile + one iteration of every benchmark)"
go test -run='^$' -bench=. -benchtime=1x ./internal/tensor/ ./internal/core/ ./internal/graph/ > /dev/null

echo "== serve load smoke (servebench: stream, online, mixed with their correctness gates)"
(cd servebench && go test -count=1 .)

echo "== fuzz smoke (persistence parsers + ingest bodies, seed corpus + 5s each)"
go test -run='^$' -fuzz='^FuzzDecode$' -fuzztime=5s ./internal/checkpoint/
go test -run='^$' -fuzz='^FuzzCacheReadFrom$' -fuzztime=5s ./internal/core/
go test -run='^$' -fuzz='^FuzzLoadParams$' -fuzztime=5s ./internal/tgat/
go test -run='^$' -fuzz='^FuzzIngest$' -fuzztime=5s ./internal/serve/
go test -run='^$' -fuzz='^FuzzTransitiveInvalidate$' -fuzztime=5s ./internal/core/
go test -run='^$' -fuzz='^FuzzSwapManifest$' -fuzztime=5s ./internal/swap/

echo "OK"
