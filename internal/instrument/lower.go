package instrument

import (
	"repro/internal/balllarus"
	"repro/internal/bytecode"
	"repro/internal/cfg"
)

// compileKey identifies one compilation of a program: its (feedback,
// config) pair. Config is comparable (plain scalars plus the Facts
// pointer), so the whole key is; Facts is stripped before keying
// because it never affects lowering (guided and unguided campaigns
// share one compile).
type compileKey struct {
	fb  Feedback
	cfg Config
}

// CompiledFor lowers prog's fb instrumentation into a compiled
// bytecode program. Compilations are memoized in the program's own
// memo table (cfg.Program.Memo): every fuzzer, campaign resume and
// evalharness worker that uses the same (program, feedback, config)
// shares one *bytecode.Program, and a program that is no longer used
// is collected with its compilations. ok is false when fb has no
// bytecode lowering (the extension feedbacks keep tracer-based
// semantics and run on the reference interpreter).
func CompiledFor(fb Feedback, prog *cfg.Program, c Config) (cp *bytecode.Program, ok bool) {
	c = c.withDefaults()
	kc := c
	kc.Facts = nil
	key := compileKey{fb: fb, cfg: kc}
	memo := prog.Memo()
	if v, hit := memo.Load(key); hit {
		return v.(*bytecode.Program), true
	}
	spec, ok := lowerSpec(fb, prog, c)
	if !ok {
		return nil, false
	}
	// Optimization is on by default; the differential tests pin its
	// observational equivalence against the reference interpreter.
	// Strict analysis adds the IR and bytecode verifiers to every
	// compile.
	spec.Opt = !c.NoOpt
	spec.Verify = c.Analysis == "strict"
	cp = bytecode.Compile(prog, spec)
	if v, raced := memo.LoadOrStore(key, cp); raced {
		// A concurrent caller won the store; use its program so pointer
		// identity holds process-wide.
		cp = v.(*bytecode.Program)
	}
	return cp, true
}

// lowerSpec builds the compile-time instrumentation spec mirroring the
// tracer the New dispatcher would construct for fb.
func lowerSpec(fb Feedback, prog *cfg.Program, c Config) (bytecode.Spec, bool) {
	switch fb {
	case FeedbackEdge:
		return bytecode.Spec{Kind: bytecode.ProbeEdge, Fns: baseFns(edgeBase(prog))}, true
	case FeedbackBlock:
		return bytecode.Spec{Kind: bytecode.ProbeBlock, Fns: baseFns(blockBase(prog))}, true
	case FeedbackNGram:
		return bytecode.Spec{Kind: bytecode.ProbeNGram, NGram: c.NGram, Fns: baseFns(blockBase(prog))}, true
	case FeedbackPath:
		return pathSpec(prog, c), true
	case FeedbackPathAFL:
		base := edgeBase(prog)
		fns := make([]bytecode.FnSpec, len(prog.Funcs))
		for i, f := range prog.Funcs {
			fns[i] = bytecode.FnSpec{
				Base:    base[i],
				Salt:    fnSalt(i),
				Tracked: len(f.Blocks) >= c.PathAFLMinBlocks,
			}
		}
		return bytecode.Spec{Kind: bytecode.ProbePathAFL, Segment: c.PathAFLSegment, Fns: fns}, true
	}
	return bytecode.Spec{}, false
}

func baseFns(base []uint32) []bytecode.FnSpec {
	fns := make([]bytecode.FnSpec, len(base))
	for i, b := range base {
		fns[i] = bytecode.FnSpec{Base: b}
	}
	return fns
}

// pathSpec mirrors NewPathTracer's plan construction, including the
// hash-mode fallback for functions whose path counts overflow.
func pathSpec(prog *cfg.Program, c Config) bytecode.Spec {
	spec := bytecode.Spec{
		Kind:    bytecode.ProbePath,
		MixHash: c.Mix == MixHash,
		Fns:     make([]bytecode.FnSpec, len(prog.Funcs)),
	}
	for i, f := range prog.Funcs {
		fs := &spec.Fns[i]
		fs.Salt = fnSalt(i)
		enc, err := balllarus.Encode(f)
		if err != nil {
			fs.HashMode = true
			continue
		}
		var plan balllarus.Plan
		if c.NaivePlacement {
			plan = enc.NaivePlan()
		} else {
			plan = enc.OptimizedPlan()
		}
		fs.EdgeInc = plan.EdgeInc
		fs.RetInc = plan.RetInc
		fs.Back = plan.Back
	}
	return spec
}
