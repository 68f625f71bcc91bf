package interproc

import (
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/analysis"
	"repro/internal/cfg"
	"repro/internal/lang"
)

// BranchFact is the input-dependency verdict for one conditional
// branch (a TermBr block), under the full dependency closure: the
// condition's own data taint joined with the control context deciding
// whether the block executes at all.
type BranchFact struct {
	Block int
	Pos   lang.Pos
	// Dep / Bytes: may input influence this branch's outcome (including
	// whether it executes), and through which content bytes. Dep with
	// empty Bytes means length-only dependency.
	Dep   bool
	Bytes ByteSet
	// DataDep / DataBytes: the condition value's own taint, excluding
	// control context — what cmp-style mutation of the condition sees.
	DataDep   bool
	DataBytes ByteSet
	// CondIv is the condition's interval at the branch; a decided
	// interval (never zero, or always zero) means the intra-procedural
	// analysis already resolves the branch.
	CondIv analysis.Interval
}

// CmpSite is one comparison instruction (OpBin with a relational
// operator) in a reachable block, with the statically known operand
// intervals and a Dep flag: may mutation change either operand's
// VALUE — a content-byte dependency or a direct length dependency.
// Presence-only dependency (the comparison runs under input-dependent
// control but always sees the same values, e.g. a constant-bound loop
// counter behind a length guard) leaves Dep false: solving such a
// comparison by value substitution is provably fruitless, which is
// what the cmplog skip list exploits.
type CmpSite struct {
	Block, Instr int
	Op           lang.Kind
	AIv, BIv     analysis.Interval
	Dep          bool
	Pos          lang.Pos
}

// FnFacts collects the per-function results.
type FnFacts struct {
	Name string
	// Branches holds one fact per reachable conditional branch,
	// ascending by block index.
	Branches []BranchFact
	// Cmps holds one site per comparison in a reachable block, in
	// (block, instr) order.
	Cmps []CmpSite
	// Ball-Larus path facts. EncodeOK means the function's acyclic
	// paths are numberable; Walked means every path was abstractly
	// interpreted (NumPaths within simulateCap), making Infeasible
	// meaningful: ascending IDs proven impossible to record.
	EncodeOK   bool
	Walked     bool
	NumPaths   uint64
	Infeasible []uint64
	// Implications are the proven pairwise branch correlations.
	Implications []Implication

	branchIdx map[int]int
}

// Branch returns the fact for branch block b, or nil.
func (ff *FnFacts) Branch(b int) *BranchFact {
	if i, ok := ff.branchIdx[b]; ok {
		return &ff.Branches[i]
	}
	return nil
}

// Facts is the whole-program interprocedural analysis result.
type Facts struct {
	Prog  *cfg.Program
	Entry int
	CG    *CallGraph
	// Reachable[f] marks functions reachable from the entry along call
	// edges.
	Reachable []bool
	Fns       []*FnFacts
	// AllEnumerable means every function's acyclic paths are numberable
	// with NumPaths <= cellCap, the precondition for proving feedback
	// map cells dead (see CellEnumerable consumers in instrument).
	AllEnumerable bool
}

// CellCap is the exported path-count bound under which AllEnumerable
// holds; feedback-cell consumers enumerate up to this many IDs per
// function.
const CellCap = cellCap

// factsKey memoizes For per entry in the program's memo table
// (cfg.Program.Memo), so the facts live exactly as long as the program.
type factsKey struct {
	entry int
}

// For computes (or returns the cached) interprocedural facts for prog
// with the given entry function index. The result is immutable and
// safe for concurrent use.
func For(prog *cfg.Program, entry int) *Facts {
	key := factsKey{entry}
	memo := prog.Memo()
	if v, ok := memo.Load(key); ok {
		return v.(*Facts)
	}
	f := compute(prog, entry)
	if v, loaded := memo.LoadOrStore(key, f); loaded {
		return v.(*Facts)
	}
	return f
}

// ForProgram is For with the conventional "main" entry (falling back
// to function 0 when absent).
func ForProgram(prog *cfg.Program) *Facts {
	entry := 0
	if i, ok := prog.ByName["main"]; ok {
		entry = i
	}
	return For(prog, entry)
}

func compute(prog *cfg.Program, entry int) *Facts {
	cg := NewCallGraph(prog)
	t := newTaint(prog, cg, entry)
	t.Solve()

	out := &Facts{
		Prog:          prog,
		Entry:         entry,
		CG:            cg,
		Reachable:     cg.ReachableFrom(entry),
		Fns:           make([]*FnFacts, len(prog.Funcs)),
		AllEnumerable: len(prog.Funcs) > 0,
	}
	for fi, f := range prog.Funcs {
		ff := &FnFacts{Name: f.Name, branchIdx: map[int]int{}}
		out.Fns[fi] = ff
		ii := t.ivs[fi]
		env := analysis.NewEnv(f.FrameSize)
		cur := make([]TV, f.FrameSize)
		for b := range f.Blocks {
			if !ii.Reached[b] {
				continue
			}
			blk := &f.Blocks[b]
			// Replay the converged transfer through the block to read
			// per-instruction taints and intervals (the solver is at its
			// fixpoint, so the replay's summary joins are no-ops).
			ctrl := t.ctrlLocal(fi, b)
			ctrl.joinWith(&t.ctrlIn[fi])
			ctrl.LenVal, ctrl.MayInput, ctrl.MayArr = false, false, false
			copy(cur, t.tin[fi][b])
			env.CopyFrom(&ii.In[b])
			faulted := false
			for i := range blk.Instrs {
				in := &blk.Instrs[i]
				if in.Op == cfg.OpBin && isCmpKind(in.Sub) {
					dep := cur[in.A].ContentDep() || cur[in.B].ContentDep() ||
						cur[in.A].LenVal || cur[in.B].LenVal
					ff.Cmps = append(ff.Cmps, CmpSite{
						Block: b, Instr: i,
						Op:  in.Sub,
						AIv: env.Val[in.A], BIv: env.Val[in.B],
						Dep: dep,
						Pos: in.Pos,
					})
				}
				if !t.stepTaint(fi, cur, &env, in, &ctrl) {
					faulted = true
					break
				}
			}
			if faulted || blk.Term.Kind != cfg.TermBr {
				continue
			}
			data := cur[blk.Term.Cond]
			full := data
			full.joinWith(&ctrl)
			ff.branchIdx[b] = len(ff.Branches)
			ff.Branches = append(ff.Branches, BranchFact{
				Block: b,
				Pos:   blk.Term.Pos,
				Dep:   full.Dep, Bytes: full.Bytes,
				DataDep: data.Dep, DataBytes: data.Bytes,
				CondIv: env.Val[blk.Term.Cond],
			})
		}
		pf := walkPaths(f, ii)
		ff.EncodeOK = pf.encodeOK
		ff.Walked = pf.walked
		ff.NumPaths = pf.numPaths
		ff.Infeasible = pf.infeasible
		ff.Implications = pf.impls
		sort.Slice(ff.Implications, func(i, j int) bool {
			a, b := ff.Implications[i], ff.Implications[j]
			if a.B1 != b.B1 {
				return a.B1 < b.B1
			}
			if a.D1 != b.D1 {
				return a.D1 && !b.D1
			}
			if a.B2 != b.B2 {
				return a.B2 < b.B2
			}
			return a.D2 && !b.D2
		})
		if !ff.EncodeOK || ff.NumPaths > cellCap {
			out.AllEnumerable = false
		}
	}
	return out
}

// GuideBytes returns the full-closure dependency byte set for branch
// block b of function fn, with ok=false when the block is not a known
// (reachable) conditional branch. An input-dependent branch with an
// empty, non-All set depends on input length only.
func (fs *Facts) GuideBytes(fn, b int) (ByteSet, bool) {
	if fn < 0 || fn >= len(fs.Fns) {
		return ByteSet{}, false
	}
	bf := fs.Fns[fn].Branch(b)
	if bf == nil {
		return ByteSet{}, false
	}
	if bf.Dep && bf.Bytes.Empty() {
		return bf.Bytes, true
	}
	return bf.Bytes, true
}

// CmpSkipRatio returns (input-independent comparison sites, total
// comparison sites) across reachable functions — the static cmplog
// skip potential surfaced by paprof.
func (fs *Facts) CmpSkipRatio() (indep, total int) {
	for fi, ff := range fs.Fns {
		if !fs.Reachable[fi] {
			continue
		}
		for i := range ff.Cmps {
			total++
			if !ff.Cmps[i].Dep {
				indep++
			}
		}
	}
	return indep, total
}

// NumInfeasible sums the proven-infeasible path IDs program-wide.
func (fs *Facts) NumInfeasible() int {
	n := 0
	for _, ff := range fs.Fns {
		n += len(ff.Infeasible)
	}
	return n
}

// NumImplications sums the proven branch correlations program-wide.
func (fs *Facts) NumImplications() int {
	n := 0
	for _, ff := range fs.Fns {
		n += len(ff.Implications)
	}
	return n
}

// Dump writes a deterministic human-readable rendering of the facts —
// the backing of paprof -facts and its golden test.
func (fs *Facts) Dump(w io.Writer) {
	indep, total := fs.CmpSkipRatio()
	fmt.Fprintf(w, "entry: %s\n", fs.Prog.Funcs[fs.Entry].Name)
	fmt.Fprintf(w, "functions: %d reachable: %d\n", len(fs.Prog.Funcs), countTrue(fs.Reachable))
	fmt.Fprintf(w, "cmp sites: %d input-independent: %d\n", total, indep)
	fmt.Fprintf(w, "infeasible paths: %d implications: %d all-enumerable: %v\n",
		fs.NumInfeasible(), fs.NumImplications(), fs.AllEnumerable)
	for fi, f := range fs.Prog.Funcs {
		ff := fs.Fns[fi]
		if len(ff.Branches) == 0 && len(ff.Cmps) == 0 && !ff.EncodeOK {
			continue
		}
		reach := "unreachable"
		if fs.Reachable[fi] {
			reach = "reachable"
		}
		paths := "paths: not-numberable"
		if ff.EncodeOK {
			paths = fmt.Sprintf("paths: %d", ff.NumPaths)
			if ff.Walked {
				paths += fmt.Sprintf(" infeasible: %d", len(ff.Infeasible))
			}
		}
		fmt.Fprintf(w, "\nfunc %s (%s, %s)\n", f.Name, reach, paths)
		for i := range ff.Branches {
			bf := &ff.Branches[i]
			dep := "indep"
			if bf.Dep {
				dep = "dep " + bf.Bytes.String()
				if bf.Bytes.Empty() {
					dep = "dep len-only"
				}
			}
			fmt.Fprintf(w, "  branch b%d @%d:%d %s\n", bf.Block, bf.Pos.Line, bf.Pos.Col, dep)
		}
		for i := range ff.Cmps {
			cs := &ff.Cmps[i]
			dep := "indep"
			if cs.Dep {
				dep = "dep"
			}
			fmt.Fprintf(w, "  cmp b%d#%d @%d:%d %v %s a=%s b=%s\n",
				cs.Block, cs.Instr, cs.Pos.Line, cs.Pos.Col, cs.Op, dep,
				ivString(cs.AIv), ivString(cs.BIv))
		}
		for _, im := range ff.Implications {
			fmt.Fprintf(w, "  implies b%d=%s -> b%d=%s (witness %d)\n",
				im.B1, dirString(im.D1), im.B2, dirString(im.D2), im.Witness)
		}
	}
}

func countTrue(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

func dirString(d bool) string {
	if d {
		return "then"
	}
	return "else"
}

func ivString(iv analysis.Interval) string {
	if iv.IsBottom() {
		return "bot"
	}
	if iv.Lo == math.MinInt64 && iv.Hi == math.MaxInt64 {
		return "top"
	}
	return fmt.Sprintf("[%d,%d]", iv.Lo, iv.Hi)
}
