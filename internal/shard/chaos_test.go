package shard

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tgopt/internal/core"
	"tgopt/internal/faultfs"
	"tgopt/internal/graph"
	"tgopt/internal/tensor"
)

// chaosEmbedder injects faults into exactly one failure domain: while
// mode is non-zero, calls on the target shard panic (mode 1) or stall
// (mode 2). Every other shard computes normally.
type chaosEmbedder struct {
	core.Embedder
	shard  int
	target *atomic.Int32 // which shard id misbehaves (set after ring build)
	mode   *atomic.Int32
}

const (
	chaosOff   int32 = 0
	chaosPanic int32 = 1
	chaosStall int32 = 2
)

func (c *chaosEmbedder) EmbedWith(ar *tensor.Arena, nodes []int32, ts []float64) *tensor.Tensor {
	if int32(c.shard) == c.target.Load() {
		switch c.mode.Load() {
		case chaosPanic:
			panic(fmt.Sprintf("chaos: injected panic on shard %d", c.shard))
		case chaosStall:
			time.Sleep(200 * time.Millisecond)
		}
	}
	return c.Embedder.EmbedWith(ar, nodes, ts)
}

// TestChaosShardPanicUnderLoad is the headline robustness test: under
// concurrent deadline-bounded load, one shard's engine panics
// repeatedly. The run must show (a) every non-degraded row of every
// response bitwise-identical to an unsharded single-engine run, (b) no
// whole-request failures beyond context expiry — shard death degrades,
// never errors, (c) no request outliving its deadline by more than
// scheduling slack, and (d) the breaker opening and then closing again
// after the supervisor restarts the shard.
func TestChaosShardPanicUnderLoad(t *testing.T) {
	m := testModel(t)
	edges := testEdges(60)
	nodes, ts := embedQuery()
	want := referenceSlab(t, m, edges, nodes, ts)

	var mode, victim atomic.Int32
	victim.Store(-1)
	r := newTestRouter(t, m, edges, Config{
		Shards: 4,
		// A short cooldown so the test observes the full breaker cycle
		// without waiting out the production default.
		Breaker: BreakerConfig{Window: 16, Threshold: 0.5, MinSamples: 2, Cooldown: 20 * time.Millisecond, Probes: 2},
		WrapEmbedder: func(id int, e core.Embedder) core.Embedder {
			return &chaosEmbedder{Embedder: e, shard: id, target: &victim, mode: &mode}
		},
	})
	// Make the primary of the first queried node the victim so the
	// fault is guaranteed to sit on the request path.
	victim.Store(int32(r.Owner(nodes[0])))

	const (
		workers    = 8
		perWorker  = 30
		reqTimeout = 500 * time.Millisecond
	)
	var (
		wg          sync.WaitGroup
		hardFails   atomic.Int64
		overruns    atomic.Int64
		misrows     atomic.Int64
		clean       atomic.Int64
		degradedSum atomic.Int64
	)
	d := r.Dim()
	check := func(res *Result) {
		bad := map[int]bool{}
		for _, i := range res.Degraded {
			bad[i] = true
		}
		degradedSum.Add(int64(len(res.Degraded)))
		for i := range nodes {
			if bad[i] {
				continue
			}
			for j := 0; j < d; j++ {
				if res.Slab[i*d+j] != want[i*d+j] {
					misrows.Add(1)
					return
				}
			}
		}
		if !res.Partial {
			clean.Add(1)
		}
	}
	var completed atomic.Int64
	// Each worker pauses after its first quarter until the fault is
	// armed, and at its half-way point until the fault is withdrawn, so
	// the fault lands mid-load and recovery runs under load however
	// fast the engine finishes a request.
	armed, disarmed := make(chan struct{}), make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				switch i {
				case perWorker / 4:
					<-armed
				case perWorker / 2:
					<-disarmed
				}
				ctx, cancel := context.WithTimeout(context.Background(), reqTimeout)
				start := time.Now()
				res, err := r.Embed(ctx, nodes, ts)
				elapsed := time.Since(start)
				cancel()
				completed.Add(1)
				if elapsed > reqTimeout+300*time.Millisecond {
					overruns.Add(1)
				}
				if err != nil {
					if ctx.Err() == nil {
						hardFails.Add(1) // failed for a non-deadline reason
					}
					continue
				}
				check(res)
			}
		}()
	}

	// Mid-load: arm the panic once every worker has finished its first
	// quarter (progress-synchronized, not wall-clock — the workload may
	// be arbitrarily fast), keep it armed until the victim demonstrably
	// panicked, then disarm and let the supervisor bring it back while
	// the remaining half of the load flows.
	waitFor(t, 10*time.Second, func() bool { return completed.Load() >= workers*(perWorker/4) })
	mode.Store(chaosPanic)
	close(armed)
	waitFor(t, 10*time.Second, func() bool {
		return r.shards[int(victim.Load())].panics.Load() > 0
	})
	mode.Store(chaosOff)
	close(disarmed)
	wg.Wait()

	if n := hardFails.Load(); n != 0 {
		t.Errorf("%d whole-request failures; shard death must degrade, not fail", n)
	}
	if n := overruns.Load(); n != 0 {
		t.Errorf("%d requests overran their deadline", n)
	}
	if n := misrows.Load(); n != 0 {
		t.Errorf("%d responses had non-degraded rows differing from the unsharded reference", n)
	}
	if clean.Load() == 0 {
		t.Error("no clean full responses at all; pool never recovered")
	}

	// The victim must have crashed, restarted, and its breaker cycled.
	// The restart runs on the supervisor goroutine, so wait rather than
	// assert instantaneously.
	vid := int(victim.Load())
	waitFor(t, 5*time.Second, func() bool {
		v := r.Stats().Shards[vid]
		return v.Panics > 0 && v.Restarts > 0 && v.BreakerOpens > 0 && v.BreakerHalfOpens > 0
	})

	// After the storm the pool must settle back to full clean service.
	waitFor(t, 2*time.Second, func() bool {
		res, err := r.Embed(context.Background(), nodes, ts)
		return err == nil && !res.Partial
	})
	res, err := r.Embed(context.Background(), nodes, ts)
	if err != nil || res.Partial {
		t.Fatalf("post-recovery embed: err=%v partial=%v", err, res.Partial)
	}
	for i := range want {
		if res.Slab[i] != want[i] {
			t.Fatalf("post-restart slab[%d] = %v, want %v (not bitwise identical)", i, res.Slab[i], want[i])
		}
	}
	if got := r.Stats().Shards[vid].Breaker; got != "closed" && got != "half-open" {
		t.Fatalf("victim breaker = %s after recovery", got)
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

// TestChaosRestartFromSnapshot pins the restart-from-snapshot leg: a
// crashed shard warms its rebuilt caches from its last snapshot (saved
// through a fault-injecting FS to prove the envelope survives), and a
// bit-flipped snapshot is detected and demoted to a cold start — the
// shard still comes back serving bitwise-correct rows either way.
func TestChaosRestartFromSnapshot(t *testing.T) {
	m := testModel(t)
	edges := testEdges(50)
	nodes, ts := embedQuery()
	want := referenceSlab(t, m, edges, nodes, ts)
	for name, corrupt := range map[string]bool{"warm": false, "corrupt-cold": true} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			ffs := faultfs.NewFS()
			var mode, victim atomic.Int32
			victim.Store(-1)
			r := newTestRouter(t, m, edges, Config{
				Shards:      3,
				SnapshotDir: dir,
				FS:          ffs,
				Breaker:     BreakerConfig{MinSamples: 2, Cooldown: 10 * time.Millisecond, Probes: 1},
				WrapEmbedder: func(id int, e core.Embedder) core.Embedder {
					return &chaosEmbedder{Embedder: e, shard: id, target: &victim, mode: &mode}
				},
			})
			victim.Store(int32(r.Owner(nodes[0])))
			vid := int(victim.Load())

			if _, err := r.Embed(context.Background(), nodes, ts); err != nil {
				t.Fatal(err)
			}
			if err := r.SaveSnapshots(); err != nil {
				t.Fatal(err)
			}
			if corrupt {
				path := filepath.Join(dir, fmt.Sprintf("shard-%d.tgc", vid))
				if err := faultfs.FlipBit(path, 120); err != nil {
					t.Fatal(err)
				}
			}
			loadsBefore := r.Stats().SnapshotLoads

			// Kill the victim once.
			mode.Store(chaosPanic)
			res, err := r.Embed(context.Background(), nodes, ts)
			mode.Store(chaosOff)
			if err != nil {
				t.Fatal(err)
			}
			_ = res // may be partial or rescued by failover; both fine

			waitFor(t, 2*time.Second, func() bool {
				return r.Stats().Shards[vid].Restarts > 0 && !r.shards[vid].crashed.Load()
			})
			st := r.Stats()
			loads := st.SnapshotLoads - loadsBefore
			if corrupt {
				if loads != 0 {
					t.Fatalf("corrupt snapshot was loaded (%d loads)", loads)
				}
				if st.SnapshotErrors == 0 {
					t.Fatal("corrupt snapshot not counted")
				}
			} else if loads != 1 {
				t.Fatalf("snapshot loads = %d, want 1", loads)
			}

			// Either way the rebuilt shard serves bitwise-correct rows.
			waitFor(t, 2*time.Second, func() bool {
				res, err := r.Embed(context.Background(), nodes, ts)
				return err == nil && !res.Partial
			})
			res, err = r.Embed(context.Background(), nodes, ts)
			if err != nil || res.Partial {
				t.Fatalf("post-restart embed: err=%v partial=%v", err, res != nil && res.Partial)
			}
			for i := range want {
				if res.Slab[i] != want[i] {
					t.Fatalf("post-restart slab[%d] differs from reference", i)
				}
			}
		})
	}
}

// TestChaosIngestDuringRestart pins the edge-log catch-up: edges
// applied while a shard is down are replayed before its rebuilt core
// goes live, so post-restart rows reflect the full stream.
func TestChaosIngestDuringRestart(t *testing.T) {
	m := testModel(t)
	edges := testEdges(40)
	nodes, ts := embedQuery()

	var mode, victim atomic.Int32
	victim.Store(-1)
	r := newTestRouter(t, m, edges, Config{
		Shards:  3,
		Breaker: BreakerConfig{MinSamples: 2, Cooldown: 10 * time.Millisecond, Probes: 1},
		WrapEmbedder: func(id int, e core.Embedder) core.Embedder {
			return &chaosEmbedder{Embedder: e, shard: id, target: &victim, mode: &mode}
		},
	})
	victim.Store(int32(r.Owner(nodes[0])))
	vid := int(victim.Load())

	if _, err := r.Embed(context.Background(), nodes, ts); err != nil {
		t.Fatal(err)
	}

	// Crash the victim, then broadcast edges while it is (possibly
	// still) down.
	mode.Store(chaosPanic)
	if _, err := r.Embed(context.Background(), nodes, ts); err != nil {
		t.Fatal(err)
	}
	mode.Store(chaosOff)
	extra := []graph.Edge{
		{Src: nodes[0], Dst: 5, Time: 850},
		{Src: 3, Dst: nodes[0], Time: 950},
	}
	for _, e := range extra {
		r.Apply(e, graph.IngestAppended)
	}

	waitFor(t, 2*time.Second, func() bool {
		return r.Stats().Shards[vid].Restarts > 0 && !r.shards[vid].crashed.Load()
	})
	waitFor(t, 2*time.Second, func() bool {
		res, err := r.Embed(context.Background(), nodes, ts)
		return err == nil && !res.Partial
	})

	all := append(append([]graph.Edge(nil), edges...), extra...)
	want := referenceSlab(t, m, all, nodes, ts)
	res, err := r.Embed(context.Background(), nodes, ts)
	if err != nil || res.Partial {
		t.Fatalf("embed: err=%v partial=%v", err, res.Partial)
	}
	for i := range want {
		if res.Slab[i] != want[i] {
			t.Fatalf("slab[%d] = %v, want %v (restarted shard missed a logged edge)", i, res.Slab[i], want[i])
		}
	}
}
