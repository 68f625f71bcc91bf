package bytecode

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/subjects"
)

// lowerCflow lowers the cflow subject under edge probes (which give
// conditional branches trampolines) and checks the clean lowering
// verifies, so a later failure is the corruption's doing.
func lowerCflow(t *testing.T) *compiler {
	t.Helper()
	prog := subjects.Get("cflow").MustProgram()
	spec := Spec{Kind: ProbeEdge, Fns: make([]FnSpec, len(prog.Funcs))}
	var base uint32
	for i, f := range prog.Funcs {
		spec.Fns[i].Base = base
		base += uint32(len(f.Edges))
	}
	c := lower(prog, spec)
	if err := c.verify(); err != nil {
		t.Fatalf("clean lowering rejected: %v", err)
	}
	return c
}

// findOp returns the function index and pc of the first instruction
// with opcode op, searching functions in order.
func findOp(t *testing.T, c *compiler, op uint8) (fi int, pc int32) {
	t.Helper()
	for fi := range c.out.fns {
		for pc := c.out.fns[fi].entryPC; pc < c.layouts[fi].end; pc++ {
			if c.out.code[pc].op == op {
				return fi, pc
			}
		}
	}
	t.Fatalf("no opcode %d in the lowering", op)
	return 0, 0
}

// midBlock returns a pc of function fi that lies inside a block but is
// neither a block start nor a trampoline start.
func midBlock(t *testing.T, c *compiler, fi int) int32 {
	t.Helper()
	targets := c.fnTargets(fi)
	for pc := c.layouts[fi].blockStart[0]; pc < c.layouts[fi].end; pc++ {
		if !targets[pc] {
			return pc
		}
	}
	t.Fatalf("function %q has no mid-block pc", c.out.fns[fi].name)
	return 0
}

// wantVerifyErr asserts err is a verifier rejection naming function fi
// and mentioning the violated invariant.
func wantVerifyErr(t *testing.T, c *compiler, fi int, err error, invariant string) {
	t.Helper()
	if err == nil {
		t.Fatal("corrupted code passed the verifier")
	}
	for _, want := range []string{fmt.Sprintf("func %q", c.out.fns[fi].name), invariant} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("diagnostic %q does not mention %q", err, want)
		}
	}
}

// TestVerifierRejectsCorruptLowering proves the structural verifier,
// not luck, is what rejects broken compiler output: each case corrupts
// one thing in a lowered cflow and checks the matching verifier pass
// fails with a diagnostic naming the function.
func TestVerifierRejectsCorruptLowering(t *testing.T) {
	t.Run("jump-target-mid-block", func(t *testing.T) {
		c := lowerCflow(t)
		fi, pc := findOp(t, c, opJmp)
		c.out.code[pc].a = midBlock(t, c, fi)
		wantVerifyErr(t, c, fi, c.verify(), "is not a block or trampoline start")
	})
	t.Run("slot-past-frame", func(t *testing.T) {
		c := lowerCflow(t)
		fi, pc := findOp(t, c, opConst)
		c.out.code[pc].dst = c.out.fns[fi].frameSize
		wantVerifyErr(t, c, fi, c.verify(), "outside frame")
	})
	t.Run("fused-branch-target", func(t *testing.T) {
		c := lowerCflow(t)
		c.fuseAll()
		if err := c.verifyFused(); err != nil {
			t.Fatalf("clean fusion rejected: %v", err)
		}
		fi, pc := findOp(t, c, opStepBr)
		c.out.code[pc].b = midBlock(t, c, fi)
		wantVerifyErr(t, c, fi, c.verifyFused(), "is not a block or trampoline start")
	})
}
