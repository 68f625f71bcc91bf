package fuzz

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"testing"
	"time"
)

// countedPCG is a math/rand/v2 source over a PCG that counts Uint64
// calls, the oracle for rng's draw counter.
type countedPCG struct {
	pcg   rand.PCG
	calls uint64
}

func (c *countedPCG) Uint64() uint64 {
	c.calls++
	return c.pcg.Uint64()
}

// oracleBounds mixes powers of two, small bounds, bounds up to 2^40 and
// a bound whose rejection zone is a quarter of the range (3<<61), so
// the mask, multiply-shift and rejection paths all run.
func oracleBounds() []int {
	var ns []int
	for k := 0; k <= 40; k++ {
		ns = append(ns, 1<<k)
	}
	for n := 1; n <= 300; n++ {
		ns = append(ns, n)
	}
	for n := 1000; n < 1<<40; n = n*7 + 3 {
		ns = append(ns, n)
	}
	return append(ns, 1<<40-1, 1<<40+1, 3<<61)
}

// TestRNGIntnMatchesStdlib: Intn and Int63n must agree draw for draw
// with math/rand/v2's IntN and Int64N over the same PCG, and the draw
// counter must equal the number of Uint64 calls the stdlib made.
func TestRNGIntnMatchesStdlib(t *testing.T) {
	if ^uint(0)>>32 == 0 {
		t.Skip("math/rand/v2 uses a 32-bit reduction on 32-bit hosts")
	}
	for _, seed := range []int64{0, 1, 77, -5} {
		g := newRNG(seed)
		src := &countedPCG{pcg: g.pcg}
		ref := rand.New(src)
		for round := 0; round < 20; round++ {
			for _, n := range oracleBounds() {
				if got, want := g.Intn(n), ref.IntN(n); got != want {
					t.Fatalf("seed %d round %d: Intn(%d) = %d, stdlib IntN = %d", seed, round, n, got, want)
				}
				if got, want := g.Int63n(int64(n)), ref.Int64N(int64(n)); got != want {
					t.Fatalf("seed %d round %d: Int63n(%d) = %d, stdlib Int64N = %d", seed, round, n, got, want)
				}
			}
			if got, want := g.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %d round %d: Uint64 %#x != %#x", seed, round, got, want)
			}
		}
		if g.draws != src.calls {
			t.Fatalf("seed %d: draw counter %d, stdlib made %d Uint64 calls", seed, g.draws, src.calls)
		}
	}
}

// TestSnapshotRNGContinuesStream: a snapshot taken after any number of
// draws must restore to the identical stream and draw count.
func TestSnapshotRNGContinuesStream(t *testing.T) {
	f := newSnapFuzzer(t, 2000)
	for _, extra := range []int{0, 1, 7, 1000, 12345} {
		for i := 0; i < extra; i++ {
			f.rng.Intn(1 + i%1000)
		}
		snap := f.Snapshot()
		if snap.RNGDraws != f.rng.draws {
			t.Fatalf("snapshot RNGDraws %d, generator drew %d", snap.RNGDraws, f.rng.draws)
		}
		f2, err := Restore(f.prog, snapOpts(), snap)
		if err != nil {
			t.Fatal(err)
		}
		if f2.rng.draws != f.rng.draws {
			t.Fatalf("after %d extra draws: restored count %d, want %d", extra, f2.rng.draws, f.rng.draws)
		}
		a, b := f.rng, f2.rng // copies: the fuzzers' streams stay put
		for i := 0; i < 64; i++ {
			if x, y := a.Intn(1000003), b.Intn(1000003); x != y {
				t.Fatalf("after %d extra draws: stream diverges at draw %d (%d vs %d)", extra, i, x, y)
			}
		}
	}
}

// TestRestoreHugeDrawCountIsConstantTime: the draw count is a statistic,
// never replayed. A snapshot claiming 2^50 draws restores at once.
func TestRestoreHugeDrawCountIsConstantTime(t *testing.T) {
	f := newSnapFuzzer(t, 500)
	snap := f.Snapshot()
	snap.RNGDraws = 1 << 50
	done := make(chan error, 1)
	var f2 *Fuzzer
	go func() {
		var err error
		f2, err = Restore(f.prog, snapOpts(), snap)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("Restore with RNGDraws = 1<<50 did not return: the draw count is being replayed")
	}
	if got := f2.Snapshot().RNGDraws; got != 1<<50 {
		t.Fatalf("restored RNGDraws %d, want %d", got, uint64(1<<50))
	}
	if !bytes.Equal(f2.rng.state(), f.rng.state()) {
		t.Fatal("restored generator state differs from the snapshot's")
	}
}

// TestRestoreRejectsBadRNGState: a missing, truncated or malformed RNG
// state fails with ErrRNGState instead of continuing a fresh stream.
func TestRestoreRejectsBadRNGState(t *testing.T) {
	f := newSnapFuzzer(t, 500)
	good := f.Snapshot().RNGState
	if len(good) != 20 {
		t.Fatalf("RNG state is %d bytes, want 20", len(good))
	}
	corrupt := append([]byte(nil), good...)
	corrupt[0] ^= 0xff
	for name, st := range map[string][]byte{
		"nil":     nil,
		"empty":   {},
		"short":   good[:10],
		"long":    append(append([]byte(nil), good...), 0),
		"corrupt": corrupt,
	} {
		snap := f.Snapshot()
		snap.RNGState = st
		_, err := Restore(f.prog, snapOpts(), snap)
		if !errors.Is(err, ErrRNGState) {
			t.Errorf("%s RNG state: got %v, want ErrRNGState", name, err)
		}
	}
}

// TestMutatorZeroAlloc: havoc and splice draw through the concrete
// generator and recycle their buffers, so steady-state calls allocate
// nothing.
func TestMutatorZeroAlloc(t *testing.T) {
	m := newMut(1, true)
	m.dict = [][]byte{[]byte("MAGIC"), []byte("\x00\x01")}
	a, b := bytes.Repeat([]byte("ab"), 20), bytes.Repeat([]byte("xyz"), 30)
	for i := 0; i < 1000; i++ { // grow the pooled buffers
		m.havoc(a)
		m.splice(a, b)
	}
	if avg := testing.AllocsPerRun(2000, func() { m.havoc(a) }); avg != 0 {
		t.Errorf("havoc allocates %.2f per call", avg)
	}
	if avg := testing.AllocsPerRun(2000, func() { m.splice(a, b) }); avg != 0 {
		t.Errorf("splice allocates %.2f per call", avg)
	}
}

// FuzzRestoreRNGState feeds arbitrary bytes to Restore as the RNG
// state. Each input must fail with ErrRNGState, or restore to a state
// that two independent restores continue identically; never a panic.
func FuzzRestoreRNGState(f *testing.F) {
	base, err := New(compileT(f, fig1), snapOpts())
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range snapSeeds {
		base.AddSeed(s)
	}
	base.Fuzz(300)
	snap := base.Snapshot()
	f.Add(snap.RNGState)
	f.Add([]byte(nil))
	f.Add([]byte("pcg:"))
	f.Add([]byte("pcg:0123456789abcdef"))
	f.Add([]byte("PCG:0123456789abcdef"))
	f.Fuzz(func(t *testing.T, state []byte) {
		s := *snap
		s.RNGState = state
		f1, err1 := Restore(base.prog, snapOpts(), &s)
		f2, err2 := Restore(base.prog, snapOpts(), &s)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("restores disagree: %v vs %v", err1, err2)
		}
		if err1 != nil {
			if !errors.Is(err1, ErrRNGState) || !errors.Is(err2, ErrRNGState) {
				t.Fatalf("untyped error: %v / %v", err1, err2)
			}
			return
		}
		if !bytes.Equal(f1.rng.state(), state) {
			t.Fatalf("accepted state %x re-encodes as %x", state, f1.rng.state())
		}
		f1.Fuzz(snap.Stats.Execs + 200)
		f2.Fuzz(snap.Stats.Execs + 200)
		if !bytes.Equal(encodeSnap(t, f1.Snapshot()), encodeSnap(t, f2.Snapshot())) {
			t.Fatal("two restores of the same state diverged")
		}
	})
}
