package vm

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"ilplimit/internal/asm"
	"ilplimit/internal/isa"
)

func mustAssemble(t *testing.T, src string) *isa.Program {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func run(t *testing.T, src string) (*VM, []Event) {
	t.Helper()
	p := mustAssemble(t, src)
	vm := New(p)
	var evs []Event
	if err := vm.Run(func(e Event) { evs = append(evs, e) }); err != nil {
		t.Fatalf("run: %v", err)
	}
	return vm, evs
}

func TestArithmetic(t *testing.T) {
	vm, _ := run(t, `
.proc main
	li   $t0, 7
	li   $t1, 3
	add  $t2, $t0, $t1
	sub  $t3, $t0, $t1
	mul  $t4, $t0, $t1
	div  $t5, $t0, $t1
	rem  $t6, $t0, $t1
	and  $t7, $t0, $t1
	or   $t8, $t0, $t1
	xor  $t9, $t0, $t1
	halt
.endproc
`)
	want := map[isa.Reg]int64{
		isa.RT0 + 2: 10, isa.RT0 + 3: 4, isa.RT0 + 4: 21, isa.RT0 + 5: 2,
		isa.RT0 + 6: 1, isa.RT0 + 7: 3, isa.RT0 + 8: 7, isa.RT9: 4,
	}
	for r, v := range want {
		if vm.R[r] != v {
			t.Errorf("%v = %d, want %d", r, vm.R[r], v)
		}
	}
}

func TestShiftsAndCompares(t *testing.T) {
	vm, _ := run(t, `
.proc main
	li   $t0, -8
	srai $t1, $t0, 1
	srli $t2, $t0, 60
	slli $t3, $t0, 1
	li   $t4, 5
	slt  $t5, $t0, $t4
	sle  $t6, $t4, $t4
	seq  $t7, $t4, $t0
	sne  $t8, $t4, $t0
	slti $t9, $t4, 6
	halt
.endproc
`)
	if vm.R[isa.RT0+1] != -4 {
		t.Errorf("srai: %d", vm.R[isa.RT0+1])
	}
	if vm.R[isa.RT0+2] != 15 {
		t.Errorf("srli: %d", vm.R[isa.RT0+2])
	}
	if vm.R[isa.RT0+3] != -16 {
		t.Errorf("slli: %d", vm.R[isa.RT0+3])
	}
	for i, want := range []int64{1, 1, 0, 1, 1} {
		r := isa.RT0 + 5 + isa.Reg(i)
		if vm.R[r] != want {
			t.Errorf("compare %v = %d, want %d", r, vm.R[r], want)
		}
	}
}

func TestMemoryAndData(t *testing.T) {
	vm, evs := run(t, `
.data
xs: .word 11 22 33
.proc main
	la  $t0, xs
	lw  $t1, 1($t0)
	sw  $t1, 2($t0)
	halt
.endproc
`)
	if vm.Mem[isa.DataBase+2] != 22 {
		t.Errorf("mem = %d, want 22", vm.Mem[isa.DataBase+2])
	}
	// Events 1 and 2 carry the effective addresses.
	if evs[1].Addr != isa.DataBase+1 || evs[2].Addr != isa.DataBase+2 {
		t.Errorf("addrs = %d, %d", evs[1].Addr, evs[2].Addr)
	}
}

// TestReleaseReusesMemory checks that NewSized takes back a released
// image of its size, restored to the new program's initial state.
func TestReleaseReusesMemory(t *testing.T) {
	p := mustAssemble(t, `
.data
xs: .word 11 22 33
.proc main
	la  $t0, xs
	li  $t1, 99
	sw  $t1, 0($t0)
	sw  $t1, 100($t0)
	halt
.endproc
`)
	const words = 1 << 12
	images.free = nil // images left by an earlier run of this test
	m := NewSized(p, words)
	if err := m.Run(func(Event) {}); err != nil {
		t.Fatal(err)
	}
	mem := m.Mem
	m.Release()
	if m.Mem != nil {
		t.Error("Mem survives Release")
	}
	m = NewSized(p, words)
	if &m.Mem[0] != &mem[0] {
		t.Error("NewSized did not reuse the released image")
	}
	if m.Mem[isa.DataBase] != 11 || m.Mem[isa.DataBase+100] != 0 {
		t.Errorf("reused image not reset: %d, %d", m.Mem[isa.DataBase], m.Mem[isa.DataBase+100])
	}
	if other := NewSized(p, words); &other.Mem[0] == &mem[0] {
		t.Error("one image handed to two machines")
	}

	// Machines taking and releasing images at once each see a fresh
	// image, never one another's writes.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				m := NewSized(p, words)
				if m.Mem[isa.DataBase] != 11 || m.Mem[isa.DataBase+100] != 0 {
					t.Errorf("image not reset: %d, %d", m.Mem[isa.DataBase], m.Mem[isa.DataBase+100])
				}
				if err := m.Run(func(Event) {}); err != nil {
					t.Error(err)
				}
				m.Release()
			}
		}()
	}
	wg.Wait()
}

func TestBranchOutcomes(t *testing.T) {
	_, evs := run(t, `
.proc main
	li   $t0, 3
loop:
	addi $t0, $t0, -1
	bnez $t0, loop
	halt
.endproc
`)
	var outcomes []bool
	p := 0
	for _, e := range evs {
		_ = p
		if e.Idx == 2 { // the bnez
			outcomes = append(outcomes, e.Taken)
		}
	}
	want := []bool{true, true, false}
	if len(outcomes) != len(want) {
		t.Fatalf("branch executed %d times, want %d", len(outcomes), len(want))
	}
	for i := range want {
		if outcomes[i] != want[i] {
			t.Errorf("outcome %d = %v, want %v", i, outcomes[i], want[i])
		}
	}
}

func TestCallsAndStack(t *testing.T) {
	vm, _ := run(t, `
.proc main
	li   $a0, 5
	jal  double
	mov  $s0, $v0
	halt
.endproc
.proc double
	add  $v0, $a0, $a0
	ret
.endproc
`)
	if vm.R[isa.RS0] != 10 {
		t.Errorf("double(5) = %d, want 10", vm.R[isa.RS0])
	}
}

func TestRecursion(t *testing.T) {
	// fib(10) = 55 with naive recursion exercising the stack.
	vm, _ := run(t, `
.proc main
	li   $a0, 10
	jal  fib
	mov  $s0, $v0
	halt
.endproc
.proc fib
	li   $t0, 2
	blt  $a0, $t0, base
	addi $sp, $sp, -3
	sw   $ra, 0($sp)
	sw   $a0, 1($sp)
	addi $a0, $a0, -1
	jal  fib
	sw   $v0, 2($sp)
	lw   $a0, 1($sp)
	addi $a0, $a0, -2
	jal  fib
	lw   $t1, 2($sp)
	add  $v0, $v0, $t1
	lw   $ra, 0($sp)
	addi $sp, $sp, 3
	ret
base:
	mov  $v0, $a0
	ret
.endproc
`)
	if vm.R[isa.RS0] != 55 {
		t.Errorf("fib(10) = %d, want 55", vm.R[isa.RS0])
	}
}

func TestFloatOps(t *testing.T) {
	vm, _ := run(t, `
.data
c: .word 2.0
.proc main
	fli   $f0, 1.5
	la    $t0, c
	flw   $f1, 0($t0)
	fadd  $f2, $f0, $f1
	fsub  $f3, $f1, $f0
	fmul  $f4, $f0, $f1
	fdiv  $f5, $f1, $f0
	fneg  $f6, $f0
	fabs  $f7, $f6
	fli   $f8, 9.0
	fsqrt $f9, $f8
	fslt  $t1, $f0, $f1
	fsle  $t2, $f1, $f1
	fseq  $t3, $f0, $f1
	fsne  $t4, $f0, $f1
	cvtfi $t5, $f2
	cvtif $f10, $t5
	fsw   $f2, 0($t0)
	halt
.endproc
`)
	fwant := map[int]float64{2: 3.5, 3: 0.5, 4: 3.0, 5: 2.0 / 1.5, 6: -1.5, 7: 1.5, 9: 3.0, 10: 3.0}
	for i, v := range fwant {
		if vm.F[i] != v {
			t.Errorf("f%d = %g, want %g", i, vm.F[i], v)
		}
	}
	iwant := map[isa.Reg]int64{isa.RT0 + 1: 1, isa.RT0 + 2: 1, isa.RT0 + 3: 0, isa.RT0 + 4: 1, isa.RT0 + 5: 3}
	for r, v := range iwant {
		if vm.R[r] != v {
			t.Errorf("%v = %d, want %d", r, vm.R[r], v)
		}
	}
}

func TestJumpTable(t *testing.T) {
	for idx, want := range map[int]int64{0: 100, 1: 200, 2: 300} {
		src := `
.jumptable disp: c0 c1 c2
.proc main
	li   $t0, ` + itoa(idx) + `
	jtab $t0, disp
c0:	li $s0, 100
	j done
c1:	li $s0, 200
	j done
c2:	li $s0, 300
done:
	halt
.endproc
`
		vm, _ := run(t, src)
		if vm.R[isa.RS0] != want {
			t.Errorf("jtab(%d): s0 = %d, want %d", idx, vm.R[isa.RS0], want)
		}
	}
}

func itoa(i int) string { return string(rune('0' + i)) }

func TestZeroRegisterImmutable(t *testing.T) {
	vm, _ := run(t, `
.proc main
	li  $zero, 99
	add $zero, $zero, $zero
	li  $t0, 5
	add $t1, $t0, $zero
	halt
.endproc
`)
	if vm.R[isa.RZero] != 0 {
		t.Errorf("r0 = %d, want 0", vm.R[isa.RZero])
	}
	if vm.R[isa.RT0+1] != 5 {
		t.Errorf("t1 = %d, want 5", vm.R[isa.RT0+1])
	}
}

func TestPrintOutput(t *testing.T) {
	vm, _ := run(t, `
.proc main
	li $t0, 42
	printi $t0
	li $t1, 10
	printc $t1
	fli $f0, 2.5
	printf $f0
	halt
.endproc
`)
	if got := vm.Output(); got != "42\n2.5" {
		t.Errorf("output = %q, want %q", got, "42\n2.5")
	}
}

func TestTraps(t *testing.T) {
	cases := []struct{ name, src string }{
		{"div by zero", ".proc main\n li $t0, 1\n div $t1, $t0, $zero\n halt\n.endproc"},
		{"rem by zero", ".proc main\n li $t0, 1\n rem $t1, $t0, $zero\n halt\n.endproc"},
		{"load oob", ".proc main\n li $t0, -5\n lw $t1, 0($t0)\n halt\n.endproc"},
		{"store oob", ".proc main\n li $t0, 1\n slli $t0, $t0, 40\n sw $t0, 0($t0)\n halt\n.endproc"},
		{"table oob", ".jumptable d: a\n.proc main\n li $t0, 7\n jtab $t0, d\na: halt\n.endproc"},
		{"bad pc via jr", ".proc main\n li $t0, -1\n jr $t0\n halt\n.endproc"},
	}
	for _, c := range cases {
		p := mustAssemble(t, c.src)
		vm := New(p)
		if err := vm.Run(nil); err == nil {
			t.Errorf("%s: no trap", c.name)
		}
	}
}

func TestStepLimit(t *testing.T) {
	p := mustAssemble(t, ".proc main\nspin: j spin\n halt\n.endproc")
	vm := New(p)
	vm.StepLimit = 1000
	err := vm.Run(nil)
	if !errors.Is(err, ErrStepLimit) {
		t.Errorf("err = %v, want ErrStepLimit", err)
	}
	if vm.Steps != 1000 {
		t.Errorf("steps = %d, want 1000", vm.Steps)
	}
}

func TestResetReproducible(t *testing.T) {
	p := mustAssemble(t, `
.data
x: .word 1
.proc main
	la  $t0, x
	lw  $t1, 0($t0)
	addi $t1, $t1, 1
	sw  $t1, 0($t0)
	printi $t1
	halt
.endproc
`)
	vm := New(p)
	if err := vm.Run(nil); err != nil {
		t.Fatal(err)
	}
	first := vm.Output()
	steps := vm.Steps
	vm.Reset()
	if err := vm.Run(nil); err != nil {
		t.Fatal(err)
	}
	if vm.Output() != first || vm.Steps != steps {
		t.Errorf("rerun diverged: %q/%d vs %q/%d", vm.Output(), vm.Steps, first, steps)
	}
}

func TestEventStreamMatchesSteps(t *testing.T) {
	vm, evs := run(t, `
.proc main
	li   $t0, 10
loop:
	addi $t0, $t0, -1
	bnez $t0, loop
	halt
.endproc
`)
	if int64(len(evs)) != vm.Steps {
		t.Errorf("events %d != steps %d", len(evs), vm.Steps)
	}
	// 1 li + 10*(addi+bnez) + halt
	if vm.Steps != 1+20+1 {
		t.Errorf("steps = %d, want 22", vm.Steps)
	}
}

func TestOutputAccumulation(t *testing.T) {
	vm, _ := run(t, `
.proc main
	li $t0, 0
loop:
	printi $t0
	li $t2, 32
	printc $t2
	addi $t0, $t0, 1
	li $t1, 3
	blt $t0, $t1, loop
	halt
.endproc
`)
	if got := strings.TrimSpace(vm.Output()); got != "0 1 2" {
		t.Errorf("output = %q", got)
	}
}
