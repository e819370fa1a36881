package serve

import (
	"encoding/binary"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"tgopt/internal/faultfs"
)

func snapshotEdges() []edgeJSON {
	var edges []edgeJSON
	for i := 0; i < 40; i++ {
		edges = append(edges, edgeJSON{
			Src: int32(i%10 + 1), Dst: int32(i%5 + 11), Time: float64(100 * (i + 1)), Idx: int32(i + 1),
		})
	}
	return edges
}

// warmCache runs a few embed requests so the engine memoizes
// embeddings worth snapshotting.
func warmCache(t *testing.T, s *Server, url string) {
	t.Helper()
	ingest(t, url, snapshotEdges())
	resp, body := post(t, url+"/v1/embed", embedRequest{
		Nodes: []int32{1, 2, 3, 11, 12}, Times: []float64{5000, 5000, 5000, 5000, 5000},
	})
	if resp.StatusCode != 200 {
		t.Fatalf("embed failed: %d %s", resp.StatusCode, body)
	}
	if s.Engine().CacheLen() == 0 {
		t.Fatal("embed requests populated no cache entries")
	}
}

func TestServeWarmStartRoundTrip(t *testing.T) {
	s, ts := testServer(t)
	warmCache(t, s, ts.URL)
	path := filepath.Join(t.TempDir(), "cache.bin")
	if err := s.Engine().SaveCaches(path); err != nil {
		t.Fatal(err)
	}

	s2, ts2 := testServer(t)
	ingest(t, ts2.URL, snapshotEdges())
	var lines []string
	s2.WarmStart(path, func(f string, a ...any) { lines = append(lines, f) })
	if got, want := s2.Engine().CacheLen(), s.Engine().CacheLen(); got != want {
		t.Fatalf("warm start restored %d entries, want %d (log: %v)", got, want, lines)
	}
}

// TestServeWarmStartColdOnMissingAndCorrupt: the serving process must
// boot either way — missing snapshot, garbage file, a bit-flipped real
// snapshot, or a snapshot in the retired pre-envelope format all mean a
// logged cold start, never an exit or a half-loaded cache. Every case
// but the missing file counts one snapshot error.
func TestServeWarmStartColdOnMissingAndCorrupt(t *testing.T) {
	dir := t.TempDir()

	s, ts := testServer(t)
	warmCache(t, s, ts.URL)
	valid := filepath.Join(dir, "valid.bin")
	if err := s.Engine().SaveCaches(valid); err != nil {
		t.Fatal(err)
	}
	flipped := filepath.Join(dir, "flipped.bin")
	data, err := os.ReadFile(valid)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(flipped, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := faultfs.FlipBit(flipped, int64(len(data))*4); err != nil {
		t.Fatal(err)
	}
	garbage := filepath.Join(dir, "garbage.bin")
	if err := os.WriteFile(garbage, []byte("not a snapshot at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Pre-envelope layer stream: one cached layer (layer 1) holding a v1
	// "TGCC" blob with a single zero embedding.
	var legacyData []byte
	dim := s.Engine().Dim()
	for _, v := range []uint32{1, 1, 0x54474343, uint32(dim), 1} {
		legacyData = binary.LittleEndian.AppendUint32(legacyData, v)
	}
	legacyData = binary.LittleEndian.AppendUint64(legacyData, 1<<32|5000)
	legacyData = append(legacyData, make([]byte, 4*dim)...)
	legacy := filepath.Join(dir, "legacy.bin")
	if err := os.WriteFile(legacy, legacyData, 0o644); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name, path string
		snapErrs   int64
	}{
		{"missing", filepath.Join(dir, "nope.bin"), 0},
		{"garbage", garbage, 1},
		{"bit-flipped", flipped, 1},
		{"legacy", legacy, 1},
	} {
		s2, ts2 := testServer(t)
		ingest(t, ts2.URL, snapshotEdges())
		logged := 0
		s2.WarmStart(tc.path, func(string, ...any) { logged++ })
		if s2.Engine().CacheLen() != 0 {
			t.Fatalf("%s: cache not cold after failed warm start (%d entries)", tc.name, s2.Engine().CacheLen())
		}
		if logged == 0 {
			t.Fatalf("%s: cold start not logged", tc.name)
		}
		if got := s2.snapshotErrors.Load(); got != tc.snapErrs {
			t.Fatalf("%s: snapshot_errors = %d, want %d", tc.name, got, tc.snapErrs)
		}
	}
}

func TestServeStartSnapshotsWritesLoadableSnapshot(t *testing.T) {
	s, ts := testServer(t)
	warmCache(t, s, ts.URL)
	path := filepath.Join(t.TempDir(), "cache.bin")
	stop := s.StartSnapshots(path, 5*time.Millisecond, nil)
	deadline := time.Now().Add(5 * time.Second)
	for s.snapshotSaves.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no snapshot written within 5s")
		}
		time.Sleep(time.Millisecond)
	}
	stop()
	stop() // idempotent

	s2, ts2 := testServer(t)
	ingest(t, ts2.URL, snapshotEdges())
	if err := s2.Engine().LoadCaches(path); err != nil {
		t.Fatalf("background snapshot not loadable: %v", err)
	}
	if s2.Engine().CacheLen() == 0 {
		t.Fatal("background snapshot restored nothing")
	}

	// Counters surface in /v1/stats.
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Snapshots < 1 {
		t.Fatalf("stats snapshots = %d, want >= 1", st.Snapshots)
	}
}

// TestServeSnapshotsDuringIngest races the background snapshotter
// against live ingestion and embedding: every snapshot the ticker
// writes must stay fully loadable (the per-shard counts are taken
// under the shard locks).
func TestServeSnapshotsDuringIngest(t *testing.T) {
	s, ts := testServer(t)
	path := filepath.Join(t.TempDir(), "cache.bin")
	stop := s.StartSnapshots(path, time.Millisecond, func(f string, a ...any) {
		t.Errorf("snapshot failure: "+f, a...)
	})
	edges := snapshotEdges()
	for i, e := range edges {
		ingest(t, ts.URL, []edgeJSON{e})
		post(t, ts.URL+"/v1/embed", embedRequest{
			Nodes: []int32{e.Src, e.Dst}, Times: []float64{e.Time + 1, e.Time + 1},
		})
		if i%8 == 0 {
			time.Sleep(2 * time.Millisecond)
		}
	}
	stop()
	if s.snapshotSaves.Load() == 0 {
		t.Skip("no snapshot fired during the run")
	}
	s2, ts2 := testServer(t)
	ingest(t, ts2.URL, edges)
	if err := s2.Engine().LoadCaches(path); err != nil {
		t.Fatalf("snapshot taken during ingest not loadable: %v", err)
	}
}
