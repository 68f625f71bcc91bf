package coverage_test

import (
	"math/rand/v2"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/coverage"
)

func TestMapBasics(t *testing.T) {
	m := coverage.NewMap(64)
	if m.Len() != 64 {
		t.Fatalf("len = %d", m.Len())
	}
	m.Add(3)
	m.Add(3)
	m.Add(64 + 3) // wraps
	m.Add(10)
	if m.Bytes()[3] != 3 {
		t.Errorf("entry 3 = %d, want 3 (wrapping add)", m.Bytes()[3])
	}
	if m.CountNonZero() != 2 {
		t.Errorf("nonzero = %d", m.CountNonZero())
	}
	idx := m.Indices()
	if len(idx) != 2 || idx[0] != 3 || idx[1] != 10 {
		t.Errorf("indices = %v", idx)
	}
	m.Reset()
	if m.CountNonZero() != 0 {
		t.Error("reset failed")
	}
}

func TestMapSaturates(t *testing.T) {
	m := coverage.NewMap(64)
	for i := 0; i < 1000; i++ {
		m.Add(0)
	}
	if m.Bytes()[0] != 255 {
		t.Errorf("saturation: %d", m.Bytes()[0])
	}
}

func TestMapSizeValidation(t *testing.T) {
	for _, bad := range []int{0, -4, 3, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewMap(%d) did not panic", bad)
				}
			}()
			coverage.NewMap(bad)
		}()
	}
}

func TestClassifyBuckets(t *testing.T) {
	cases := map[uint8]uint8{
		0: 0, 1: 1, 2: 2, 3: 4, 4: 8, 7: 8, 8: 16, 15: 16,
		16: 32, 31: 32, 32: 64, 127: 64, 128: 128, 255: 128,
	}
	for in, want := range cases {
		bits := []uint8{in}
		coverage.Classify(bits)
		if bits[0] != want {
			t.Errorf("classify(%d) = %d, want %d", in, bits[0], want)
		}
	}
}

func TestClassifyProperties(t *testing.T) {
	// Bucketing is monotone-ish in powers and produces single-bit
	// masks.
	err := quick.Check(func(c uint8) bool {
		bits := []uint8{c}
		coverage.Classify(bits)
		b := bits[0]
		if c == 0 {
			return b == 0
		}
		// Exactly one bit set.
		return b != 0 && b&(b-1) == 0
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestVirginMerge(t *testing.T) {
	v := coverage.NewVirgin(8)
	trace := make([]uint8, 8)
	trace[1] = 1
	if nov := v.Merge(trace); nov != coverage.NewTuples {
		t.Fatalf("first merge: %v", nov)
	}
	if nov := v.Merge(trace); nov != coverage.NoNew {
		t.Fatalf("repeat merge: %v", nov)
	}
	// Same entry, new bucket: counts as NewCounts.
	trace[1] = 2
	if nov := v.Merge(trace); nov != coverage.NewCounts {
		t.Fatalf("new bucket: %v", nov)
	}
	// New entry beats new count.
	trace2 := make([]uint8, 8)
	trace2[1] = 4
	trace2[5] = 1
	if nov := v.Merge(trace2); nov != coverage.NewTuples {
		t.Fatalf("mixed: %v", nov)
	}
}

func TestVirginPeekDoesNotConsume(t *testing.T) {
	v := coverage.NewVirgin(8)
	trace := make([]uint8, 8)
	trace[2] = 1
	if v.Peek(trace) != coverage.NewTuples {
		t.Fatal("peek novelty")
	}
	if v.Peek(trace) != coverage.NewTuples {
		t.Fatal("peek consumed")
	}
	v.Merge(trace)
	if v.Peek(trace) != coverage.NoNew {
		t.Fatal("merge did not consume")
	}
}

// TestVirginMergeIdempotent is the novelty-consumption property: after
// any merge, re-merging the same classified trace reports NoNew.
func TestVirginMergeIdempotent(t *testing.T) {
	err := quick.Check(func(raw []uint8) bool {
		size := 64
		v := coverage.NewVirgin(size)
		trace := make([]uint8, size)
		for i, b := range raw {
			trace[i%size] = b
		}
		coverage.Classify(trace)
		v.Merge(trace)
		return v.Merge(trace) == coverage.NoNew
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Error(err)
	}
}

// TestVirginMonotone: merging a superset trace after its subset yields
// novelty exactly when the superset adds entries or buckets.
func TestVirginMonotone(t *testing.T) {
	v := coverage.NewVirgin(16)
	a := make([]uint8, 16)
	a[3] = 1
	v.Merge(a)
	b := make([]uint8, 16)
	b[3] = 1
	b[7] = 1
	if v.Merge(b) != coverage.NewTuples {
		t.Error("superset not novel")
	}
	if v.Merge(b) != coverage.NoNew {
		t.Error("second superset merge novel")
	}
}

func TestHashes(t *testing.T) {
	a := make([]uint8, 32)
	b := make([]uint8, 32)
	if coverage.Hash64(a) != coverage.Hash64(b) {
		t.Error("equal traces hash differently")
	}
	if coverage.SparseHash64(a) != coverage.SparseHash64(b) {
		t.Error("equal traces sparse-hash differently")
	}
	b[5] = 3
	if coverage.Hash64(a) == coverage.Hash64(b) {
		t.Error("different traces collide (Hash64)")
	}
	if coverage.SparseHash64(a) == coverage.SparseHash64(b) {
		t.Error("different traces collide (SparseHash64)")
	}
	// Sparse and dense agree on discrimination for position swaps.
	c := make([]uint8, 32)
	c[6] = 3
	if coverage.SparseHash64(b) == coverage.SparseHash64(c) {
		t.Error("position not mixed into sparse hash")
	}
}

// TestSparseMatchesDense: the sparse classify/merge fast path must be
// observationally identical to the dense one for any access pattern.
func TestSparseMatchesDense(t *testing.T) {
	err := quick.Check(func(indices []uint16, repeats uint8) bool {
		size := 1 << 10
		sparse := coverage.NewMap(size)
		dense := make([]uint8, size)
		for r := 0; r <= int(repeats%4); r++ {
			for _, raw := range indices {
				i := uint32(raw) % uint32(size)
				sparse.Add(i)
				if dense[i] != 255 {
					dense[i]++
				}
			}
		}
		coverage.Classify(dense)
		sparse.ClassifySparse()
		sb := sparse.Bytes()
		for i := range dense {
			if sb[i] != dense[i] {
				return false
			}
		}
		// Novelty agreement.
		v1 := coverage.NewVirgin(size)
		v2 := coverage.NewVirgin(size)
		if v1.Merge(dense) != v2.MergeSparse(sparse) {
			return false
		}
		// And idempotence of the sparse path.
		return v2.MergeSparse(sparse) == coverage.NoNew
	}, &quick.Config{MaxCount: 150})
	if err != nil {
		t.Error(err)
	}
}

func TestDirtyTracking(t *testing.T) {
	m := coverage.NewMap(64)
	m.Add(5)
	m.Add(5)
	m.Add(9)
	if len(m.Dirty()) != 2 {
		t.Errorf("dirty = %v", m.Dirty())
	}
	m.Reset()
	if len(m.Dirty()) != 0 || m.Bytes()[5] != 0 || m.Bytes()[9] != 0 {
		t.Error("reset did not clear dirty entries")
	}
	// Saturation does not duplicate dirty entries.
	for i := 0; i < 300; i++ {
		m.Add(7)
	}
	if len(m.Dirty()) != 1 || m.Bytes()[7] != 255 {
		t.Errorf("saturating adds: dirty=%v val=%d", m.Dirty(), m.Bytes()[7])
	}
}

// TestVirginCount pins the incremental consumed counter: Count must
// equal the number of cells with bits != 0xff after any mix of dense
// merges, bucket upgrades, and checkpoint round-trips.
func TestVirginCount(t *testing.T) {
	v := coverage.NewVirgin(16)
	if v.Count() != 0 {
		t.Fatal("fresh map should count 0")
	}
	trace := make([]uint8, 16)
	trace[2] = 1
	trace[9] = 1
	v.Merge(trace)
	if v.Count() != 2 {
		t.Fatalf("Count = %d after 2 new cells, want 2", v.Count())
	}
	// Re-merging and upgrading a bucket touch no new cells.
	v.Merge(trace)
	trace[2] = 4
	v.Merge(trace)
	if v.Count() != 2 {
		t.Fatalf("Count = %d after re-merge/bucket upgrade, want 2", v.Count())
	}
	// A genuinely new cell increments.
	trace[14] = 1
	v.Merge(trace)
	if v.Count() != 3 {
		t.Fatalf("Count = %d after third cell, want 3", v.Count())
	}

	// Sparse path counts identically.
	m := coverage.NewMap(16)
	m.Add(2)
	m.Add(7)
	m.ClassifySparse()
	v.MergeSparse(m)
	if v.Count() != 4 {
		t.Fatalf("Count = %d after sparse merge, want 4", v.Count())
	}

	// Checkpoint round-trip preserves the count.
	cells := v.Cells()
	if len(cells) != v.Count() {
		t.Fatalf("Cells len %d != Count %d", len(cells), v.Count())
	}
	v2 := coverage.NewVirgin(16)
	if err := v2.SetCells(cells); err != nil {
		t.Fatal(err)
	}
	if v2.Count() != v.Count() {
		t.Fatalf("restored Count = %d, want %d", v2.Count(), v.Count())
	}
	if err := v2.SetCells(nil); err != nil {
		t.Fatal(err)
	}
	if v2.Count() != 0 {
		t.Fatalf("SetCells(nil) Count = %d, want 0", v2.Count())
	}
}

// TestVirginCountMatchesCells is the property form: after arbitrary
// merges the incremental counter equals len(Cells()).
func TestVirginCountMatchesCells(t *testing.T) {
	err := quick.Check(func(raw []uint8) bool {
		size := 32
		v := coverage.NewVirgin(size)
		trace := make([]uint8, size)
		for i, b := range raw {
			trace[i%size] = b
			if i%7 == 6 {
				coverage.Classify(trace)
				v.Merge(trace)
			}
		}
		coverage.Classify(trace)
		v.Merge(trace)
		return v.Count() == len(v.Cells())
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Error(err)
	}
}

// TestPeekSparseMatchesMergeSparse: on random classified maps against
// a virgin map with random history, PeekSparse returns exactly the
// verdict MergeSparse then returns, and never writes the virgin map.
func TestPeekSparseMatchesMergeSparse(t *testing.T) {
	const size = 1 << 10
	rng := rand.New(rand.NewPCG(1, 2))
	fill := func(m *coverage.Map, cells int) {
		m.Reset()
		for j := 0; j < cells; j++ {
			i := uint32(rng.IntN(size / 8)) // a narrow range, so maps overlap
			for h := rng.IntN(40); h >= 0; h-- {
				m.Add(i)
			}
		}
		m.ClassifySparse()
	}
	m := coverage.NewMap(size)
	seen := map[coverage.Novelty]int{}
	for trial := 0; trial < 200; trial++ {
		v := coverage.NewVirgin(size)
		for h := rng.IntN(20); h > 0; h-- {
			fill(m, 1+rng.IntN(30))
			v.MergeSparse(m)
		}
		for probe := 0; probe < 10; probe++ {
			fill(m, rng.IntN(30))
			before := v.Cells()
			peek := v.PeekSparse(m)
			if after := v.Cells(); !reflect.DeepEqual(before, after) {
				t.Fatalf("trial %d: PeekSparse wrote the virgin map", trial)
			}
			if merged := v.MergeSparse(m); peek != merged {
				t.Fatalf("trial %d: PeekSparse = %v, MergeSparse = %v", trial, peek, merged)
			}
			seen[peek]++
		}
	}
	for _, n := range []coverage.Novelty{coverage.NoNew, coverage.NewCounts, coverage.NewTuples} {
		if seen[n] == 0 {
			t.Errorf("verdict %v never produced; the random maps miss a case", n)
		}
	}
}

// TestSetSparseRoundTrip: parking a classified map's touched entries
// and loading them into a reset map reproduces the map, its dirty list
// and its novelty verdict.
func TestSetSparseRoundTrip(t *testing.T) {
	m := coverage.NewMap(256)
	for _, i := range []uint32{9, 3, 200, 3, 3, 77} {
		m.Add(i)
	}
	m.ClassifySparse()
	idx := append([]uint32(nil), m.Dirty()...)
	var vals []uint8
	for _, i := range idx {
		vals = append(vals, m.Bytes()[i])
	}
	want := append([]uint8(nil), m.Bytes()...)
	m.Reset()
	m.SetSparse(idx, vals)
	if !reflect.DeepEqual(m.Bytes(), want) || !reflect.DeepEqual(m.Dirty(), idx) {
		t.Fatalf("SetSparse did not restore the map: dirty %v, want %v", m.Dirty(), idx)
	}
	if got := coverage.NewVirgin(256).MergeSparse(m); got != coverage.NewTuples {
		t.Fatalf("restored map merges as %v, want NewTuples", got)
	}
}
