package analysis

import "repro/internal/cfg"

// GenKill is a bit-vector dataflow problem in gen/kill form. The
// transfer function of every block b is out = Gen[b] ∪ (in \ Kill[b])
// (forward) or in = Gen[b] ∪ (out \ Kill[b]) (backward).
type GenKill struct {
	// Bits is the lattice width.
	Bits int
	// Forward selects the propagation direction.
	Forward bool
	// May selects union joins (may problems); false means intersection
	// joins (must problems).
	May bool
	// Boundary is the entry set (forward) or the set flowing out of
	// every return block (backward). Nil means empty.
	Boundary BitSet
	// Gen and Kill are the per-block transfer sets. Nil entries mean
	// empty.
	Gen, Kill []BitSet
}

// Solve runs the worklist iteration to fixpoint and returns the in/out
// set of every block. Blocks unreachable in the propagation direction
// keep the initial value (empty for may problems, full for must
// problems), which is the sound answer for both.
func (p GenKill) Solve(f *cfg.Func) (in, out []BitSet) {
	n := len(f.Blocks)
	in = make([]BitSet, n)
	out = make([]BitSet, n)
	for b := 0; b < n; b++ {
		in[b] = NewBitSet(p.Bits)
		out[b] = NewBitSet(p.Bits)
		if !p.May {
			in[b].SetFirstN(p.Bits)
			out[b].SetFirstN(p.Bits)
		}
	}
	preds := Preds(f)
	succs := Succs(f)
	order := ReversePostorder(f)
	if !p.Forward {
		rev := make([]int, len(order))
		for i, b := range order {
			rev[len(order)-1-i] = b
		}
		order = rev
	}
	// src/dst select the join input and transfer output per direction.
	join, res := in, out
	joinEdges, boundaryAt := preds, func(b int) bool { return b == 0 }
	if !p.Forward {
		join, res = out, in
		joinEdges = succs
		boundaryAt = func(b int) bool { return f.Blocks[b].Term.Kind == cfg.TermRet }
	}
	tmp := NewBitSet(p.Bits)
	for changed := true; changed; {
		changed = false
		for _, b := range order {
			// Join.
			j := join[b]
			if boundaryAt(b) || len(joinEdges[b]) > 0 {
				if p.May {
					clear(j)
				} else {
					j.SetFirstN(p.Bits)
				}
				if boundaryAt(b) && p.Boundary != nil {
					if p.May {
						j.UnionWith(p.Boundary)
					} else {
						j.IntersectWith(p.Boundary)
					}
				} else if boundaryAt(b) && !p.May {
					clear(j)
				}
				for _, o := range joinEdges[b] {
					if p.May {
						j.UnionWith(res[o])
					} else {
						j.IntersectWith(res[o])
					}
				}
			}
			// Transfer.
			tmp.CopyFrom(j)
			if p.Kill != nil && p.Kill[b] != nil {
				for i, w := range p.Kill[b] {
					tmp[i] &^= w
				}
			}
			if p.Gen != nil && p.Gen[b] != nil {
				tmp.UnionWith(p.Gen[b])
			}
			if !tmp.Equal(res[b]) {
				res[b].CopyFrom(tmp)
				changed = true
			}
		}
	}
	return in, out
}

// InstrUses appends the slots read by in to buf and returns it.
func InstrUses(in *cfg.Instr, buf []int) []int {
	switch in.Op {
	case cfg.OpConst, cfg.OpStr:
	case cfg.OpMove, cfg.OpUn:
		buf = append(buf, in.A)
	case cfg.OpBin, cfg.OpLoad:
		buf = append(buf, in.A, in.B)
	case cfg.OpStore:
		buf = append(buf, in.A, in.B, in.C)
	case cfg.OpCall, cfg.OpBuiltin:
		buf = append(buf, in.Args...)
	}
	return buf
}

// InstrDef returns the slot written by in, or -1 (stores write the
// heap, not a slot).
func InstrDef(in *cfg.Instr) int {
	if in.Op == cfg.OpStore {
		return -1
	}
	return in.Dst
}

// TermUses appends the slots read by t to buf and returns it.
func TermUses(t *cfg.Term, buf []int) []int {
	switch t.Kind {
	case cfg.TermBr:
		buf = append(buf, t.Cond)
	case cfg.TermRet:
		if t.Val >= 0 {
			buf = append(buf, t.Val)
		}
	}
	return buf
}

// DefSite identifies one definition for ReachingDefs: instruction Index
// of block Block writes Slot. Index -1 denotes the implicit entry
// definition of a parameter (Block 0).
type DefSite struct {
	Block int
	Index int
	Slot  int
}

// ReachingDefs computes the classic reaching-definitions problem (a
// forward may problem over definition sites). It returns the site
// table plus per-block in/out sets indexed by site.
func ReachingDefs(f *cfg.Func) (sites []DefSite, in, out []BitSet) {
	for s := 0; s < f.NParams; s++ {
		sites = append(sites, DefSite{Block: 0, Index: -1, Slot: s})
	}
	for b := range f.Blocks {
		for i := range f.Blocks[b].Instrs {
			if d := InstrDef(&f.Blocks[b].Instrs[i]); d >= 0 {
				sites = append(sites, DefSite{Block: b, Index: i, Slot: d})
			}
		}
	}
	bySlot := make([][]int, f.FrameSize)
	for i, s := range sites {
		bySlot[s.Slot] = append(bySlot[s.Slot], i)
	}
	n := len(f.Blocks)
	p := GenKill{
		Bits:     len(sites),
		Forward:  true,
		May:      true,
		Boundary: NewBitSet(len(sites)),
		Gen:      make([]BitSet, n),
		Kill:     make([]BitSet, n),
	}
	p.Boundary.SetFirstN(f.NParams)
	for b := 0; b < n; b++ {
		gen := NewBitSet(len(sites))
		kill := NewBitSet(len(sites))
		for i, s := range sites {
			if s.Block != b || s.Index < 0 {
				continue
			}
			// A later definition of the same slot kills all others
			// (including earlier gens of this block).
			for _, o := range bySlot[s.Slot] {
				kill.Set(o)
				gen.Unset(o)
			}
			kill.Unset(i)
			gen.Set(i)
		}
		p.Gen[b], p.Kill[b] = gen, kill
	}
	in, out = p.Solve(f)
	return sites, in, out
}

// definitelyAssigned computes, per block, the set of slots assigned on
// every path from the entry to the block's start (a forward must
// problem). Parameters are assigned at entry.
func definitelyAssigned(f *cfg.Func) (in []BitSet) {
	n := len(f.Blocks)
	p := GenKill{
		Bits:     f.FrameSize,
		Forward:  true,
		Boundary: NewBitSet(f.FrameSize),
		Gen:      make([]BitSet, n),
	}
	p.Boundary.SetFirstN(f.NParams)
	for b := 0; b < n; b++ {
		gen := NewBitSet(f.FrameSize)
		for i := range f.Blocks[b].Instrs {
			if d := InstrDef(&f.Blocks[b].Instrs[i]); d >= 0 {
				gen.Set(d)
			}
		}
		p.Gen[b] = gen
	}
	in, _ = p.Solve(f)
	return in
}
