// Command stepgen generates the specialized columnar analyzer steppers
// in internal/limits/step_gen.go.
//
// The generic limits.StepAnnotated pays, on every one of the ~10⁶
// events × 14 analyzer instances of a benchmark, a dense control-kind
// switch, per-model attention-mask tests, misprediction-lane checks and
// a latency-table indirection — even though every one of those choices
// is a constant of the analyzer's (model, unrolling, latency)
// configuration.  stepgen folds them away at build time: for each of
// the paper's seven machine models × {plain, unrolled} × {unit
// latency, latency table} it emits one branch-free chunk stepper that
// streams the columnar lanes of a limits.Chunk, plus the dispatch
// table limits.NewAnalyzerConfig resolves once at construction.
//
// A finite scheduling window adds a completion-time ring to the same
// body.  Only the configurations listed in windowed get a windowed
// stepper — today the window study's SP-CD-MF, unrolled, unit latency,
// the one a finite window runs under outside tests — because each one
// costs about 100 generated lines; every other windowed configuration
// keeps the generic path.
//
// The emitted code is derived mechanically from the generic
// StepAnnotated (the equivalence oracle): each specialization is the
// generic body with the model's constants substituted and the dead
// branches deleted.  step_gen_test.go pins generated-vs-generic result
// equality for every configuration, and `make generate-check` fails
// the build when the committed output drifts from this generator.
//
// Usage (normally via `go generate ./internal/limits` or `make generate`):
//
//	go run ilplimit/cmd/stepgen -out internal/limits/step_gen.go
package main

import (
	"bytes"
	"flag"
	"fmt"
	"go/format"
	"log"
	"os"
	"strings"
)

// modelSpec describes one machine model's constants: exactly the facts
// NewAnalyzerConfig derives from limits.Model and the generator folds
// into the emitted stepper.
type modelSpec struct {
	// ident is the limits.Model constant name (and function-name stem).
	ident string
	// paper is the paper's model name, for comments.
	paper string
	// ctrl selects the control-constraint emission (the folded
	// ctrlKind): none, lastBranch, cdOrdered, cd, lastMispred,
	// cdMispredOrdered or cdMispred.
	ctrl string
	// needCD: the model tracks dynamic control dependences (leader
	// handling, call/return stack, rec table).
	needCD bool
	// spec: the model speculates, so branch events carry a
	// misprediction fact in the analyzer's predictor lane.
	spec bool
	// segments: the model aggregates misprediction-distance segments
	// (SP only; NewAnalyzerConfig sets trackSegments iff model == SP).
	segments bool
	// updBranchT: some constraint of this model reads lastBranchT, so
	// branch completion must keep it current.
	updBranchT bool
	// updMispredT: some constraint reads lastMispredT.
	updMispredT bool
}

// models lists the paper's seven machines with the constants the
// generic path re-derives per event.
var models = []modelSpec{
	{ident: "Base", paper: "BASE", ctrl: "lastBranch", updBranchT: true},
	{ident: "CD", paper: "CD", ctrl: "cdOrdered", needCD: true, updBranchT: true},
	{ident: "CDMF", paper: "CD-MF", ctrl: "cd", needCD: true},
	{ident: "SP", paper: "SP", ctrl: "lastMispred", spec: true, segments: true, updMispredT: true},
	{ident: "SPCD", paper: "SP-CD", ctrl: "cdMispredOrdered", needCD: true, spec: true, updMispredT: true},
	{ident: "SPCDMF", paper: "SP-CD-MF", ctrl: "cdMispred", needCD: true, spec: true},
	{ident: "Oracle", paper: "ORACLE", ctrl: "none"},
}

// windowSpec names one configuration that also gets a finite-window
// stepper.
type windowSpec struct {
	// ident is the modelSpec.ident of the model.
	ident       string
	unroll, lat bool
}

// windowed lists the configurations with a generated finite-window
// stepper; NewAnalyzerConfig runs every other windowed configuration
// through the generic StepAnnotated loop.  Specializing another one is
// a one-line addition here.
var windowed = []windowSpec{
	{ident: "SPCDMF", unroll: true}, // harness.RunWindowStudy
}

// gen accumulates emitted source; go/format normalizes the layout.
type gen struct {
	buf bytes.Buffer
}

// p emits one line.
func (g *gen) p(format string, args ...interface{}) {
	fmt.Fprintf(&g.buf, format, args...)
	g.buf.WriteByte('\n')
}

// funcName builds the stepper identifier for one configuration.
func funcName(m modelSpec, unroll, lat, window bool) string {
	u, l := "plain", "unit"
	if unroll {
		u = "unroll"
	}
	if lat {
		l = "lat"
	}
	name := fmt.Sprintf("step%s_%s_%s", m.ident, u, l)
	if window {
		name += "_win"
	}
	return name
}

// modelByIdent finds a model's spec by its identifier.
func modelByIdent(ident string) modelSpec {
	for _, m := range models {
		if m.ident == ident {
			return m
		}
	}
	log.Fatalf("unknown model %q", ident)
	return modelSpec{}
}

// attentionMask renders the constant attention-mask expression: the
// flags that divert an event from the pure scheduling path.
func attentionMask(m modelSpec, unroll bool) string {
	parts := []string{"FlagInline"}
	if unroll {
		parts = append(parts, "FlagUnroll")
	}
	parts = append(parts, "FlagCall", "FlagReturn")
	if m.needCD {
		parts = append(parts, "FlagLeader")
	}
	return strings.Join(parts, " | ")
}

// skipMask renders the constant skip-mask expression: the filters that
// remove an event from this configuration's schedule.
func skipMask(unroll bool) string {
	if unroll {
		return "FlagInline | FlagUnroll"
	}
	return "FlagInline"
}

// emitStepper writes one specialized chunk stepper.  The body is the
// generic StepAnnotated with this configuration's constants folded:
// dead model branches deleted, masks inlined, and the per-event
// count/maxT updates hoisted to chunk-local accumulators.  A window
// stepper also holds the completion-time ring and its position in
// locals across the chunk.
func emitStepper(g *gen, m modelSpec, unroll, lat, window bool) {
	name := funcName(m, unroll, lat, window)
	uDesc := "without unrolling"
	if unroll {
		uDesc = "with perfect unrolling"
	}
	lDesc := "unit latency"
	if lat {
		lDesc = "a latency table"
	}
	if window {
		lDesc += ", a finite window"
	}
	// isBr is needed beyond the mispred computation whenever the model
	// reacts to branch completion (rec table, branch-ordering times) or
	// orders branches in its constraint.
	needIsBr := m.updBranchT || m.needCD || m.ctrl == "cdOrdered"
	needMispred := m.spec

	g.p("// %s schedules one columnar chunk under %s (%s, %s).", name, m.paper, uDesc, lDesc)
	g.p("func %s(a *Analyzer, c *Chunk) {", name)
	g.p("idxL := c.idx")
	g.p("addrL := c.addr[:len(idxL)]")
	g.p("flagsL := c.flags[:len(idxL)]")
	g.p("meta := a.st.meta")
	if lat {
		// NewAnalyzerConfig sizes latTab to latTabLen, so the conversion
		// cannot panic and the uint8 opcode index needs no bounds check.
		g.p("latTab := (*[latTabLen]int64)(a.latTab)")
	}
	g.p("count, maxT := a.count, a.maxT")
	if window {
		g.p("ring, pos := a.ring, a.ringPos")
	}
	g.p("for i := range idxL {")
	g.p("flags := flagsL[i]")
	// Models without control-dependence tracking never read meta on the
	// attention path, so the (potentially cache-missing) meta load is
	// deferred past it: skipped events never touch the table.
	if m.needCD {
		g.p("m := &meta[idxL[i]]")
	}

	// Attention block: leaders (CD models), calls/returns, filtered
	// instructions.
	g.p("if flags&(%s) != 0 {", attentionMask(m, unroll))
	if m.needCD {
		g.p("if flags&FlagLeader != 0 {")
		g.p("a.enterBlock(m.block)")
		g.p("}")
	}
	g.p("if flags&FlagCall != 0 {")
	if m.needCD {
		g.p("a.stack = append(a.stack, frame{")
		g.p("savedCD:       a.curCD,")
		g.p("savedInherit:  a.inheritCD,")
		g.p("savedProcSeq:  a.curProcSeq,")
		g.p("savedBlockSeq: a.curBlockSeq,")
		g.p("})")
		g.p("a.inheritCD = a.curCD")
		g.p("a.curProcSeq = a.seqCounter + 1")
	}
	g.p("continue")
	g.p("}")
	g.p("if flags&FlagReturn != 0 {")
	if m.needCD {
		g.p("if n := len(a.stack); n > 0 {")
		g.p("f := a.stack[n-1]")
		g.p("a.stack = a.stack[:n-1]")
		g.p("a.curCD = f.savedCD")
		g.p("a.inheritCD = f.savedInherit")
		g.p("a.curProcSeq = f.savedProcSeq")
		g.p("a.curBlockSeq = f.savedBlockSeq")
		g.p("}")
	}
	g.p("continue")
	g.p("}")
	g.p("if flags&(%s) != 0 {", skipMask(unroll))
	if m.needCD {
		g.p("if flags&FlagBranch != 0 {")
		g.p("// A removed loop branch is transparent: dependents inherit")
		g.p("// the branch's own control dependence.")
		g.p("a.rec[m.block] = blockRec{")
		g.p("seq:      a.curBlockSeq,")
		g.p("termT:    a.curCD.time,")
		g.p("mispredT: a.curCD.mispredT,")
		g.p("procSeq:  a.curProcSeq,")
		g.p("}")
		g.p("}")
	}
	g.p("continue")
	g.p("}")
	g.p("}")

	if !m.needCD {
		g.p("m := &meta[idxL[i]]")
	}
	// Data dependences, branch-free: SrcRegs zero-fills unused operand
	// slots and regTime[0] is pinned to 0, so maxing over all three is
	// the nsrc-guarded max without the data-dependent branch ladder.
	// The &regIndexMask makes the in-range indices provable.
	g.p("t := a.regTime[m.src1&regIndexMask]")
	g.p("if rt := a.regTime[m.src2&regIndexMask]; rt > t {")
	g.p("t = rt")
	g.p("}")
	g.p("if rt := a.regTime[m.src3&regIndexMask]; rt > t {")
	g.p("t = rt")
	g.p("}")
	g.p("if flags&FlagLoad != 0 {")
	g.p("if mt := a.memTime.load(int64(addrL[i])); mt > t {")
	g.p("t = mt")
	g.p("}")
	g.p("}")

	// Branch facts, folded to what this model consumes.
	if needIsBr {
		g.p("isBr := flags&FlagBranch != 0")
	}
	if needMispred {
		if needIsBr {
			g.p("mispred := isBr && flags&a.mispredMask != 0")
		} else {
			g.p("mispred := flags&FlagBranch != 0 && flags&a.mispredMask != 0")
		}
	}

	// Control-flow constraint: the folded ctrlKind switch arm.
	switch m.ctrl {
	case "none":
		// Oracle: data dependences only.
	case "lastBranch":
		g.p("if ctrl := a.lastBranchT; ctrl > t {")
		g.p("t = ctrl")
		g.p("}")
	case "cdOrdered":
		g.p("ctrl := a.curCD.time")
		g.p("if isBr && a.lastBranchT > ctrl {")
		g.p("ctrl = a.lastBranchT")
		g.p("}")
		g.p("if ctrl > t {")
		g.p("t = ctrl")
		g.p("}")
	case "cd":
		g.p("if ctrl := a.curCD.time; ctrl > t {")
		g.p("t = ctrl")
		g.p("}")
	case "lastMispred":
		g.p("if ctrl := a.lastMispredT; ctrl > t {")
		g.p("t = ctrl")
		g.p("}")
	case "cdMispredOrdered":
		g.p("ctrl := a.curCD.mispredT")
		g.p("if mispred && a.lastMispredT > ctrl {")
		g.p("ctrl = a.lastMispredT")
		g.p("}")
		g.p("if ctrl > t {")
		g.p("t = ctrl")
		g.p("}")
	case "cdMispred":
		g.p("if ctrl := a.curCD.mispredT; ctrl > t {")
		g.p("t = ctrl")
		g.p("}")
	default:
		log.Fatalf("unknown ctrl kind %q", m.ctrl)
	}

	// Finite window: wait for the instruction `window` scheduled
	// positions earlier to complete.
	if window {
		g.p("if w := ring[pos]; w > t {")
		g.p("t = w")
		g.p("}")
	}

	// Issue + completion time (T = t+1; C = T + lat - 1 folds to t+lat).
	if lat {
		g.p("C := t + latTab[m.op]")
	} else {
		g.p("C := t + 1")
	}
	if window {
		g.p("ring[pos] = C")
		g.p("pos++")
		g.p("if pos == len(ring) {")
		g.p("pos = 0")
		g.p("}")
	}

	// Record the schedule.  The destination store is unconditional — a
	// zero-register write lands in slot 0 and is immediately re-zeroed,
	// preserving the regTime[0]==0 invariant the source max relies on —
	// trading the unpredictable d!=0 branch for one L1 store.
	g.p("a.regTime[m.dest&regIndexMask] = C")
	g.p("a.regTime[0] = 0")
	g.p("if flags&FlagStore != 0 {")
	g.p("a.memTime.store(int64(addrL[i]), C)")
	g.p("}")
	g.p("count++")
	g.p("if C > maxT {")
	g.p("maxT = C")
	g.p("}")
	if m.segments {
		g.p("a.segCount++")
		g.p("if C > a.segMax {")
		g.p("a.segMax = C")
		g.p("}")
	}

	// Branch completion: only the state this model's constraints (or
	// its rec table) read back is kept current.
	switch {
	case m.needCD && m.spec:
		g.p("if isBr {")
		if m.updBranchT {
			g.p("a.lastBranchT = C")
		}
		g.p("mt := a.curCD.mispredT")
		g.p("if mispred {")
		g.p("mt = C")
		g.p("}")
		emitRec(g, "C", "mt")
		if m.updMispredT {
			g.p("if mispred {")
			g.p("a.lastMispredT = C")
			g.p("}")
		}
		g.p("}")
	case m.needCD:
		g.p("if isBr {")
		if m.updBranchT {
			g.p("a.lastBranchT = C")
		}
		emitRec(g, "C", "a.curCD.mispredT")
		g.p("}")
	case m.spec:
		if m.updBranchT {
			g.p("if isBr {")
			g.p("a.lastBranchT = C")
			g.p("}")
		}
		g.p("if mispred {")
		g.p("a.lastMispredT = C")
		if m.segments {
			g.p("a.closeSegment()")
		}
		g.p("}")
	case m.updBranchT:
		g.p("if isBr {")
		g.p("a.lastBranchT = C")
		g.p("}")
	}

	g.p("}")
	g.p("a.count, a.maxT = count, maxT")
	if window {
		g.p("a.ringPos = pos")
	}
	g.p("}")
	g.p("")
}

// emitRec writes the per-block terminator record update.
func emitRec(g *gen, termT, mispredT string) {
	g.p("a.rec[m.block] = blockRec{")
	g.p("seq:      a.curBlockSeq,")
	g.p("termT:    %s,", termT)
	g.p("mispredT: %s,", mispredT)
	g.p("procSeq:  a.curProcSeq,")
	g.p("}")
}

// boolTest renders a test that the named bool equals want.
func boolTest(name string, want bool) string {
	if want {
		return name
	}
	return "!" + name
}

func main() {
	out := flag.String("out", "step_gen.go", "output file (package limits)")
	flag.Parse()

	g := &gen{}
	g.p("// Code generated by cmd/stepgen; DO NOT EDIT.")
	g.p("")
	g.p("// Specialized columnar analyzer steppers: one branch-free chunk")
	g.p("// stepper per (model, unrolling, latency) configuration, plus a")
	g.p("// finite-window stepper for each configuration cmd/stepgen lists in")
	g.p("// windowed, derived from the generic StepAnnotated with the")
	g.p("// configuration's constants folded away.  Regenerate with `make")
	g.p("// generate` (or `go generate ./internal/limits`); `make")
	g.p("// generate-check` fails when this file drifts from cmd/stepgen.")
	g.p("package limits")
	g.p("")
	g.p("import \"ilplimit/internal/isa\"")
	g.p("")
	g.p("// regIndexMask bounds register indices without a bounds check; the")
	g.p("// blank assert requires isa.NumRegs to be a power of two, so masking")
	g.p("// is the identity on every valid register number.")
	g.p("const regIndexMask = isa.NumRegs - 1")
	g.p("")
	g.p("var _ = [1]struct{}{}[isa.NumRegs&(isa.NumRegs-1)]")
	g.p("")
	g.p("// latTabLen is the latency table's allocated length: a full uint8")
	g.p("// index space, so latTab[m.op] is provably in range.")
	g.p("const latTabLen = 256")
	g.p("")
	for _, m := range models {
		for _, unroll := range []bool{false, true} {
			for _, lat := range []bool{false, true} {
				emitStepper(g, m, unroll, lat, false)
			}
		}
	}

	// Dispatch table, indexed [model][unroll][latency-table].
	g.p("// steppers dispatches the generated specializations by model,")
	g.p("// unrolling and latency-table presence.")
	g.p("var steppers = [NumModels][2][2]func(*Analyzer, *Chunk){")
	for _, m := range models {
		g.p("%s: {", m.ident)
		for _, unroll := range []bool{false, true} {
			g.p("{%s, %s},", funcName(m, unroll, false, false), funcName(m, unroll, true, false))
		}
		g.p("},")
	}
	g.p("}")
	g.p("")
	g.p("// stepperFor resolves the specialized columnar stepper for one")
	g.p("// analyzer configuration, or nil for models outside the generated")
	g.p("// set.  The specializations assume the construction-time invariants")
	g.p("// NewAnalyzerConfig guarantees when it installs one — unbounded")
	g.p("// window, no width tracking — plus the per-chunk preconditions")
	g.p("// StepChunk checks before dispatching (no OnSchedule callback, and")
	g.p("// a resolved predictor lane for speculative models).")
	g.p("func stepperFor(m Model, unrolling, latTable bool) func(*Analyzer, *Chunk) {")
	g.p("if m < 0 || int(m) >= NumModels {")
	g.p("return nil")
	g.p("}")
	g.p("u, l := 0, 0")
	g.p("if unrolling {")
	g.p("u = 1")
	g.p("}")
	g.p("if latTable {")
	g.p("l = 1")
	g.p("}")
	g.p("return steppers[m][u][l]")
	g.p("}")
	g.p("")

	for _, w := range windowed {
		emitStepper(g, modelByIdent(w.ident), w.unroll, w.lat, true)
	}
	g.p("// windowStepperFor resolves the finite-window stepper for one")
	g.p("// analyzer configuration, or nil outside the generated set.  It")
	g.p("// assumes the invariants stepperFor does, except that the window")
	g.p("// is finite: NewAnalyzerConfig sized a.ring to it.")
	g.p("func windowStepperFor(m Model, unrolling, latTable bool) func(*Analyzer, *Chunk) {")
	g.p("switch {")
	for _, w := range windowed {
		g.p("case m == %s && %s && %s:", w.ident, boolTest("unrolling", w.unroll), boolTest("latTable", w.lat))
		g.p("return %s", funcName(modelByIdent(w.ident), w.unroll, w.lat, true))
	}
	g.p("}")
	g.p("return nil")
	g.p("}")

	src, err := format.Source(g.buf.Bytes())
	if err != nil {
		// Emit the unformatted source anyway so the syntax error is
		// inspectable at the reported line.
		os.WriteFile(*out, g.buf.Bytes(), 0o644)
		log.Fatalf("stepgen: generated code does not format: %v", err)
	}
	if err := os.WriteFile(*out, src, 0o644); err != nil {
		log.Fatalf("stepgen: %v", err)
	}
}
