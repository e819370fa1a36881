package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tgopt/internal/batcher"
	"tgopt/internal/core"
	"tgopt/internal/shard"
	"tgopt/internal/tensor"
)

// shardedServer builds a server over a shard pool with the same model
// fixture as testServer, so bodies are directly comparable between the
// two serving planes.
func shardedServer(t *testing.T, cfg shard.Config) (*Server, *httptest.Server) {
	t.Helper()
	m, dyn := testModelDyn(t)
	s, err := NewSharded(m, dyn, core.OptAll(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

var shardTestEdges = []edgeJSON{
	{Src: 1, Dst: 2, Time: 10}, {Src: 1, Dst: 3, Time: 20},
	{Src: 2, Dst: 4, Time: 30}, {Src: 3, Dst: 5, Time: 40},
	{Src: 4, Dst: 6, Time: 50}, {Src: 5, Dst: 7, Time: 60},
	{Src: 6, Dst: 8, Time: 70}, {Src: 7, Dst: 1, Time: 80},
}

func waitForServe(t *testing.T, timeout time.Duration, cond func() bool) {
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

// TestServeShardedEquivalence is the router/gather ordering regression
// test (the sharded sibling of TestServeBatchedEquivalence): a scrambled
// embed request scattered over 4 shards must return rows in exact input
// order, bitwise-identical to the unsharded single-engine server, and
// per-shard single-flight dedup must demonstrably fire.
func TestServeShardedEquivalence(t *testing.T) {
	_, off := testServer(t)
	sOn, on := shardedServer(t, shard.Config{
		Shards: 4,
		Batch:  &batcher.Config{Window: 2 * time.Millisecond, MaxBatch: 32},
	})
	ingest(t, off.URL, shardTestEdges)
	ingest(t, on.URL, shardTestEdges)

	// Targets deliberately scrambled across owners and duplicated, so a
	// gather that appended rows in shard-completion order (or deduped
	// without restoring multiplicity) would corrupt the body.
	req := embedRequest{
		Nodes: []int32{7, 1, 7, 3, 5, 2, 8, 1, 6, 4, 2, 7},
		Times: []float64{90, 90, 90, 95, 95, 90, 95, 90, 95, 95, 90, 90},
	}
	want, code, err := postBody(off.URL, "/v1/embed", req)
	if err != nil || code != 200 {
		t.Fatalf("unsharded ground truth: code %d err %v", code, err)
	}
	got, code, err := postBody(on.URL, "/v1/embed", req)
	if err != nil || code != 200 {
		t.Fatalf("sharded embed: code %d err %v", code, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("sharded body differs from unsharded\nsharded:   %s\nunsharded: %s", got, want)
	}

	// Concurrent identical requests: still bitwise-identical, and the
	// per-shard batchers coalesce the overlap.
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, code, err := postBody(on.URL, "/v1/embed", req)
			if err != nil || code != 200 {
				errs <- fmt.Errorf("concurrent sharded embed: code %d err %v", code, err)
				return
			}
			if !bytes.Equal(body, want) {
				errs <- fmt.Errorf("concurrent sharded body differs from unsharded")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	var sr statsResponse
	getJSON(t, on.URL+"/v1/stats", &sr)
	if sr.Shards == nil {
		t.Fatal("stats missing shards section in sharded mode")
	}
	if sr.Shards.Healthy != 4 || sr.Shards.Quorum != 1 {
		t.Fatalf("healthy/quorum = %d/%d, want 4/1", sr.Shards.Healthy, sr.Shards.Quorum)
	}
	if sr.Shards.Batching == nil || sr.Shards.Batching.Enqueued == 0 {
		t.Fatalf("per-shard batchers unused: %+v", sr.Shards.Batching)
	}
	// The request repeats node 7 three times at one timestamp: dedup
	// must have coalesced targets even within a single request.
	if sr.Shards.Batching.Coalesced == 0 {
		t.Fatalf("no single-flight dedup across shards: %+v", sr.Shards.Batching)
	}
	if sOn.Router().CacheLen() == 0 {
		t.Fatal("shard caches empty after serving")
	}
	// Per-layer stats must survive the shard merge: the summed Items
	// across layers equals the router's total entry count, and the
	// stats response carries the same per-layer section it does in
	// single-engine mode.
	if len(sr.CacheLayers) == 0 {
		t.Fatal("sharded stats missing cache_layers section")
	}
	layerItems := 0
	for _, lc := range sOn.Router().LayerCacheStats() {
		layerItems += lc.Items
	}
	if layerItems != sOn.Router().CacheLen() {
		t.Fatalf("merged per-layer Items %d != router CacheLen %d",
			layerItems, sOn.Router().CacheLen())
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// poisonEmbedder panics on any shard whose batch contains the poisoned
// node while armed — the fault follows the target, so the primary and
// every fallback for that group fail, forcing a degraded row rather
// than a rescued one.
type poisonEmbedder struct {
	core.Embedder
	node  int32
	armed *atomic.Bool
}

func (p poisonEmbedder) EmbedWith(ar *tensor.Arena, nodes []int32, ts []float64) *tensor.Tensor {
	if p.armed.Load() {
		for _, n := range nodes {
			if n == p.node {
				panic("poisoned target")
			}
		}
	}
	return p.Embedder.EmbedWith(ar, nodes, ts)
}

// TestServeShardedPartialResponse drives the degraded contract over
// HTTP: a request whose group fails on every shard returns 206 with
// partial=true, null degraded rows, and exact remaining rows; /v1/stats
// and /metrics expose the breaker cycle; after the supervisor restarts
// the crashed shards the same request returns 200 bitwise-identical to
// the unsharded server.
func TestServeShardedPartialResponse(t *testing.T) {
	const poisoned = 3
	var armed atomic.Bool
	_, off := testServer(t)
	s, on := shardedServer(t, shard.Config{
		Shards:  4,
		Breaker: shard.BreakerConfig{Window: 16, MinSamples: 2, Cooldown: 20 * time.Millisecond, Probes: 1},
		WrapEmbedder: func(id int, e core.Embedder) core.Embedder {
			return poisonEmbedder{Embedder: e, node: poisoned, armed: &armed}
		},
	})
	ingest(t, off.URL, shardTestEdges)
	ingest(t, on.URL, shardTestEdges)

	req := embedRequest{
		Nodes: []int32{1, 2, poisoned, 4},
		Times: []float64{90, 90, 90, 90},
	}
	want, code, err := postBody(off.URL, "/v1/embed", req)
	if err != nil || code != 200 {
		t.Fatalf("unsharded ground truth: code %d err %v", code, err)
	}
	var wantResp embedResponse
	if err := json.Unmarshal(want, &wantResp); err != nil {
		t.Fatal(err)
	}

	// Healthy first: full 200, bitwise equal.
	got, code, err := postBody(on.URL, "/v1/embed", req)
	if err != nil || code != 200 || !bytes.Equal(got, want) {
		t.Fatalf("healthy sharded embed: code %d err %v", code, err)
	}

	armed.Store(true)
	body, code, err := postBody(on.URL, "/v1/embed", req)
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusPartialContent {
		t.Fatalf("poisoned embed: code %d body %s, want 206", code, body)
	}
	var pr embedResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if !pr.Partial || len(pr.Degraded) == 0 {
		t.Fatalf("206 body not marked partial: %s", body)
	}
	bad := map[int]bool{}
	for _, i := range pr.Degraded {
		bad[i] = true
	}
	if !bad[2] {
		t.Fatalf("poisoned row 2 not degraded: %v", pr.Degraded)
	}
	for i, row := range pr.Embeddings {
		if bad[i] {
			if row != nil {
				t.Fatalf("degraded row %d not null: %v", i, row)
			}
			continue
		}
		if len(row) != len(wantResp.Embeddings[i]) {
			t.Fatalf("row %d length mismatch", i)
		}
		for j := range row {
			if row[j] != wantResp.Embeddings[i][j] {
				t.Fatalf("non-degraded row %d differs from unsharded reference", i)
			}
		}
	}
	armed.Store(false)

	// The poisoned group's shards crashed; the supervisor restarts them
	// and the pool settles back to full clean 200s. The restart is
	// asynchronous and a clean 200 can come from a fallback shard before
	// it has counted itself, so wait for the restart first.
	restarted := func() bool {
		var sr statsResponse
		getJSON(t, on.URL+"/v1/stats", &sr)
		if sr.Shards == nil {
			t.Fatal("stats missing shards section")
		}
		for _, v := range sr.Shards.Shards {
			if v.Restarts > 0 {
				return true
			}
		}
		return false
	}
	waitForServe(t, 5*time.Second, restarted)
	waitForServe(t, 5*time.Second, func() bool {
		body, code, err := postBody(on.URL, "/v1/embed", req)
		return err == nil && code == 200 && bytes.Equal(body, want)
	})

	var sr statsResponse
	getJSON(t, on.URL+"/v1/stats", &sr)
	if sr.Shards == nil {
		t.Fatal("stats missing shards section")
	}
	if sr.Partials == 0 || sr.Shards.PartialResponses == 0 || sr.Shards.DegradedTargets == 0 {
		t.Fatalf("partial counters not booked: server=%d router=%+v", sr.Partials, sr.Shards)
	}
	var panics, opens, restarts int64
	for _, v := range sr.Shards.Shards {
		panics += v.Panics
		opens += v.BreakerOpens
		restarts += v.Restarts
	}
	if panics == 0 || opens == 0 || restarts == 0 {
		t.Fatalf("breaker cycle not visible in stats: panics=%d opens=%d restarts=%d", panics, opens, restarts)
	}

	// The same cycle must be scrapeable from /metrics.
	resp, err := http.Get(on.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	metrics := buf.String()
	for _, series := range []string{
		"tgopt_shards 4",
		"tgopt_partial_responses_total",
		"tgopt_shard_up{shard=\"0\"}",
		"tgopt_shard_panics_total{shard=",
		"tgopt_shard_restarts_total{shard=",
	} {
		if !strings.Contains(metrics, series) {
			t.Fatalf("/metrics missing %q", series)
		}
	}
	_ = s
}

// stallEmbedder stalls every shard while armed — used to open every
// breaker via deadline failures (no crash, so no supervisor involved)
// and prove the pool recovers through cooldown + half-open probes alone.
type stallEmbedder struct {
	core.Embedder
	armed *atomic.Bool
	d     time.Duration
}

func (p stallEmbedder) EmbedWith(ar *tensor.Arena, nodes []int32, ts []float64) *tensor.Tensor {
	if p.armed.Load() {
		time.Sleep(p.d)
	}
	return p.Embedder.EmbedWith(ar, nodes, ts)
}

// TestServeHealthEndpoints pins the /healthz and /readyz contract in
// both serving modes, including the below-quorum 503 and the
// cooldown-based recovery of a pool whose every breaker opened on
// error rate (no crash → no supervisor → recovery must come from
// half-open probes admitted by the quorum check's Eligible semantics).
func TestServeHealthEndpoints(t *testing.T) {
	t.Run("lifecycle", func(t *testing.T) {
		s, ts := testServer(t)
		if code := getCode(t, ts.URL+"/healthz"); code != 200 {
			t.Fatalf("/healthz = %d, want 200", code)
		}
		if code := getCode(t, ts.URL+"/readyz"); code != 503 {
			t.Fatalf("/readyz before SetReady = %d, want 503", code)
		}
		s.SetReady()
		if code := getCode(t, ts.URL+"/readyz"); code != 200 {
			t.Fatalf("/readyz after SetReady = %d, want 200", code)
		}
		s.BeginDrain()
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 503 || resp.Header.Get("Retry-After") == "" {
			t.Fatalf("/readyz draining = %d (Retry-After %q), want 503 with hint", resp.StatusCode, resp.Header.Get("Retry-After"))
		}
		if code := getCode(t, ts.URL+"/healthz"); code != 200 {
			t.Fatal("/healthz must stay 200 while draining")
		}
	})

	t.Run("quorum", func(t *testing.T) {
		var armed atomic.Bool
		s, ts := shardedServer(t, shard.Config{
			Shards: 2,
			Quorum: 2,
			Breaker: shard.BreakerConfig{
				Window: 4, Threshold: 0.4, MinSamples: 1,
				Cooldown: 50 * time.Millisecond, Probes: 1,
			},
			WrapEmbedder: func(id int, e core.Embedder) core.Embedder {
				return stallEmbedder{Embedder: e, armed: &armed, d: 2 * time.Second}
			},
		})
		s.SetLimits(Limits{Timeout: 100 * time.Millisecond})
		ingest(t, ts.URL, shardTestEdges)
		s.SetReady()
		if code := getCode(t, ts.URL+"/readyz"); code != 200 {
			t.Fatalf("/readyz with full quorum = %d, want 200", code)
		}

		// Stall both shards: each embed leg exceeds the server deadline,
		// books a breaker failure, and with MinSamples 1 both breakers
		// open. Quorum 2 with 0 admitting shards → not ready.
		req := embedRequest{Nodes: []int32{1, 2, 3, 4}, Times: []float64{90, 90, 90, 90}}
		armed.Store(true)
		for i := 0; i < 4; i++ {
			postBody(ts.URL, "/v1/embed", req)
		}
		if code := getCode(t, ts.URL+"/readyz"); code != 503 {
			t.Fatalf("/readyz below quorum = %d, want 503", code)
		}
		resp, body := post(t, ts.URL+"/v1/embed", req)
		if resp.StatusCode != 503 || resp.Header.Get("Retry-After") == "" {
			t.Fatalf("embed below quorum = %d (%s), want 503 with Retry-After", resp.StatusCode, body)
		}
		var sr statsResponse
		getJSON(t, ts.URL+"/v1/stats", &sr)
		if sr.QuorumRejects == 0 {
			t.Fatal("quorum_rejects not booked")
		}

		// Recovery with no supervisor help: cooldowns elapse, the shards
		// become quorum-eligible again, and half-open probes re-close the
		// breakers under live traffic.
		armed.Store(false)
		waitForServe(t, 5*time.Second, func() bool {
			body, code, err := postBody(ts.URL, "/v1/embed", req)
			_ = body
			return err == nil && code == 200
		})
		if code := getCode(t, ts.URL+"/readyz"); code != 200 {
			t.Fatalf("/readyz after recovery = %d, want 200", code)
		}
	})
}

func getCode(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestWriteEmbedErrorAccounting pins the 499/503/504 split: client
// cancellation is booked as client_cancels (nginx-style 499), never as
// a server-side 503, and quorum rejections carry a Retry-After hint.
func TestWriteEmbedErrorAccounting(t *testing.T) {
	s := &Server{}
	cases := []struct {
		err        error
		code       int
		retryAfter bool
	}{
		{context.Canceled, statusClientClosedRequest, false},
		{fmt.Errorf("leg: %w", context.Canceled), statusClientClosedRequest, false},
		{context.DeadlineExceeded, http.StatusGatewayTimeout, false},
		{shard.ErrNoQuorum, http.StatusServiceUnavailable, true},
		{fmt.Errorf("disk on fire"), http.StatusServiceUnavailable, false},
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		s.writeEmbedError(rec, tc.err)
		if rec.Code != tc.code {
			t.Errorf("writeEmbedError(%v) = %d, want %d", tc.err, rec.Code, tc.code)
		}
		if got := rec.Header().Get("Retry-After") != ""; got != tc.retryAfter {
			t.Errorf("writeEmbedError(%v) Retry-After present = %v, want %v", tc.err, got, tc.retryAfter)
		}
	}
	if got := s.clientCancels.Load(); got != 2 {
		t.Errorf("clientCancels = %d, want 2 (cancellation must not book as unavailable)", got)
	}
	if got := s.unavailable.Load(); got != 1 {
		t.Errorf("unavailable = %d, want 1", got)
	}
	if got := s.quorumRejects.Load(); got != 1 {
		t.Errorf("quorumRejects = %d, want 1", got)
	}
}
