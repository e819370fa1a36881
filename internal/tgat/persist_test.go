package tgat

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"tgopt/internal/checkpoint"
	"tgopt/internal/faultfs"
	"tgopt/internal/tensor"
)

func persistTestModel(t testing.TB, seed uint64) *Model {
	t.Helper()
	cfg := Config{Layers: 1, Heads: 1, NodeDim: 4, EdgeDim: 4, TimeDim: 4, NumNeighbors: 2, Seed: seed}
	m, err := NewModel(cfg, tensor.New(3, 4), tensor.New(3, 4))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// paramSnapshot deep-copies the model's parameter data for later
// bitwise comparison.
func paramSnapshot(m *Model) []*tensor.Tensor {
	var out []*tensor.Tensor
	for _, p := range m.Params() {
		c := tensor.New(p.Shape()...)
		c.CopyFrom(p)
		out = append(out, c)
	}
	return out
}

func paramsEqual(t *testing.T, m *Model, want []*tensor.Tensor, context string) {
	t.Helper()
	for i, p := range m.Params() {
		if d := p.MaxAbsDiff(want[i]); d != 0 {
			t.Fatalf("%s: parameter %d differs by %g", context, i, d)
		}
	}
}

func TestSaveLoadParamsEnvelopeRoundTrip(t *testing.T) {
	m := persistTestModel(t, 11)
	path := filepath.Join(t.TempDir(), "params.bin")
	if err := m.SaveParams(path); err != nil {
		t.Fatal(err)
	}
	m2 := persistTestModel(t, 99) // different init
	if err := m2.LoadParams(path); err != nil {
		t.Fatal(err)
	}
	paramsEqual(t, m2, paramSnapshot(m), "round trip")
}

// legacyParamsFile writes the pre-envelope checkpoint format: raw
// tensor-count header followed by the tensors, no checksum.
func legacyParamsFile(t *testing.T, m *Model, path string) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	ps := m.Params()
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(ps)))
	if _, err := w.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	for _, p := range ps {
		if _, err := p.WriteTo(w); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestLoadParamsLegacyFile: the pre-envelope format is no longer read.
// A legacy file is refused and leaves the model's parameters as they
// were.
func TestLoadParamsLegacyFile(t *testing.T) {
	m := persistTestModel(t, 11)
	path := filepath.Join(t.TempDir(), "legacy.bin")
	legacyParamsFile(t, m, path)
	m2 := persistTestModel(t, 99)
	before := paramSnapshot(m2)
	err := m2.LoadParams(path)
	if !errors.Is(err, checkpoint.ErrNotCheckpoint) {
		t.Fatalf("legacy checkpoint error = %v, want ErrNotCheckpoint", err)
	}
	paramsEqual(t, m2, before, "after refused legacy load")
}

// TestSaveParamsAtomicUnderFaults: whatever fault hits the file system
// during a save — short write at any offset, failed create, fsync, or
// rename — the previous on-disk checkpoint remains fully loadable.
func TestSaveParamsAtomicUnderFaults(t *testing.T) {
	m := persistTestModel(t, 11)
	path := filepath.Join(t.TempDir(), "params.bin")
	if err := m.SaveParams(path); err != nil {
		t.Fatal(err)
	}
	want := paramSnapshot(m)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	m2 := persistTestModel(t, 99) // the writer whose saves keep failing
	check := func(when string, saveErr error) {
		t.Helper()
		if saveErr == nil {
			t.Fatalf("%s: fault not reported", when)
		}
		fresh := persistTestModel(t, 5)
		if err := fresh.LoadParams(path); err != nil {
			t.Fatalf("%s: previous checkpoint damaged: %v", when, err)
		}
		paramsEqual(t, fresh, want, when)
	}

	limits := []int{0, 1, 4, 15, 16, 17}
	for l := 32; l < int(info.Size()); l += 61 {
		limits = append(limits, l)
	}
	limits = append(limits, int(info.Size())-1)
	for _, limit := range limits {
		fsys := faultfs.NewFS()
		fsys.WriteLimit = limit
		check("short write", m2.SaveParamsFS(fsys, path))
	}
	check("create", m2.SaveParamsFS(&faultfs.FS{WriteLimit: -1, FailCreate: true}, path))
	check("sync", m2.SaveParamsFS(&faultfs.FS{WriteLimit: -1, FailSync: true}, path))
	check("rename", m2.SaveParamsFS(&faultfs.FS{WriteLimit: -1, FailRename: true}, path))
}

// TestLoadParamsAllOrNothing: corrupt checkpoints (bit flips,
// truncations) must fail cleanly with the model's parameters left
// exactly as they were — never a half-applied mix of old and new.
func TestLoadParamsAllOrNothing(t *testing.T) {
	m := persistTestModel(t, 11)
	dir := t.TempDir()
	path := filepath.Join(dir, "params.bin")
	if err := m.SaveParams(path); err != nil {
		t.Fatal(err)
	}
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	loader := persistTestModel(t, 99)
	before := paramSnapshot(loader)
	for bit := int64(0); bit < int64(len(clean))*8; bit += 103 {
		if err := os.WriteFile(path, clean, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := faultfs.FlipBit(path, bit); err != nil {
			t.Fatal(err)
		}
		if err := loader.LoadParams(path); err == nil {
			t.Fatalf("bit flip at %d went undetected", bit)
		}
		paramsEqual(t, loader, before, "after bit flip")
	}
	for _, cut := range []int64{0, 5, 20, int64(len(clean) / 2), int64(len(clean)) - 1} {
		if err := os.WriteFile(path, clean, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := faultfs.TruncateFile(path, cut); err != nil {
			t.Fatal(err)
		}
		if err := loader.LoadParams(path); err == nil {
			t.Fatalf("truncation to %d went undetected", cut)
		}
		paramsEqual(t, loader, before, "after truncation")
	}
}

// FuzzLoadParams asserts the loader's contract over arbitrary file
// bytes: never a panic, and on any error the model's parameters are
// untouched.
func FuzzLoadParams(f *testing.F) {
	seedModel := persistTestModel(f, 11)
	tmp := filepath.Join(f.TempDir(), "seed.bin")
	if err := seedModel.SaveParams(tmp); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(tmp)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)*2/3])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped)
	var legacy bytes.Buffer
	ps := seedModel.Params()
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(ps)))
	legacy.Write(hdr[:])
	for _, p := range ps {
		p.WriteTo(&legacy)
	}
	f.Add(legacy.Bytes())
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		m := persistTestModel(t, 77)
		before := paramSnapshot(m)
		path := filepath.Join(t.TempDir(), "fuzz.bin")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := m.LoadParams(path); err != nil {
			paramsEqual(t, m, before, "after failed load")
		}
	})
}
