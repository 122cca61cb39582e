package sim

import (
	"strings"
	"testing"

	"repro/internal/stats"
	"repro/internal/workload"
)

// TestInvariantModeCleanRuns turns on per-reference invariant checking
// for every organization and expects the laws to hold over both a
// single-process and a multiprogrammed trace.
func TestInvariantModeCleanRuns(t *testing.T) {
	p, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	single := workload.Generate(p, 7, 20_000)
	multi := mpTrace(t, 2_000)
	for _, vm := range AllVMs() {
		vm := vm
		t.Run(vm, func(t *testing.T) {
			t.Parallel()
			cfg := Default(vm)
			cfg.CheckInvariants = true
			if _, err := Simulate(cfg, single); err != nil {
				t.Errorf("single-process: %v", err)
			}
			if _, err := Simulate(cfg, multi); err != nil {
				t.Errorf("multiprogrammed: %v", err)
			}
		})
	}
}

// TestInvariantViolationDetected tampers with a live engine's counters
// between steps and expects the very next step to report the broken
// conservation law — and every step after it to keep reporting it (the
// first violation is latched).
func TestInvariantViolationDetected(t *testing.T) {
	p, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	tr := workload.Generate(p, 7, 1_000)
	cfg := Default(VMUltrix)
	cfg.WarmupInstrs = 0
	cfg.CheckInvariants = true
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Begin(tr); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := e.Step(&tr.Refs[i]); err != nil {
			t.Fatalf("clean prefix: step %d: %v", i, err)
		}
	}
	// Break the fixed-cost law: cycles no longer equal events × cost.
	e.c.Cycles[stats.L1IMiss]++
	first := e.Step(&tr.Refs[100])
	if first == nil {
		t.Fatal("tampered counters passed the invariant check")
	}
	if !strings.Contains(first.Error(), "invariant violated") {
		t.Fatalf("unexpected error: %v", first)
	}
	if again := e.Step(&tr.Refs[101]); again == nil || again.Error() != first.Error() {
		t.Fatalf("violation not latched: first %v, then %v", first, again)
	}
}

// TestInvariantModeOffIgnoresTampering pins the opt-in: without
// CheckInvariants the same tampering goes unnoticed.
func TestInvariantModeOffIgnoresTampering(t *testing.T) {
	p, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	tr := workload.Generate(p, 7, 200)
	cfg := Default(VMUltrix)
	cfg.WarmupInstrs = 0
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Begin(tr); err != nil {
		t.Fatal(err)
	}
	if err := e.Step(&tr.Refs[0]); err != nil {
		t.Fatal(err)
	}
	e.c.Cycles[stats.L1IMiss]++
	if err := e.Step(&tr.Refs[1]); err != nil {
		t.Fatalf("invariant mode off, yet Step failed: %v", err)
	}
}

// TestMulticoreInvariantViolationNamesTracePosition: a cluster reports a
// violation at the trace position of the reference that exposed it, not
// at the stepping core's own reference count.
func TestMulticoreInvariantViolationNamesTracePosition(t *testing.T) {
	for _, cores := range []int{1, 4} {
		tr := mcTrace(t, cores, 1_000)
		cfg := Default(VMUltrix)
		cfg.Cores = cores
		cfg.WarmupInstrs = 0
		cfg.CheckInvariants = true
		m, err := NewMulticore(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Begin(tr); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 101; i++ {
			if err := m.Step(&tr.Refs[i]); err != nil {
				t.Fatalf("cores=%d: clean prefix: step %d: %v", cores, i, err)
			}
		}
		m.cores[101%cores].c.Cycles[stats.L1IMiss]++
		err = m.Step(&tr.Refs[101])
		if err == nil || !strings.Contains(err.Error(), "invariant violated at instruction 102 ") {
			t.Fatalf("cores=%d: violation at trace index 101 reported as %v", cores, err)
		}
	}
}
