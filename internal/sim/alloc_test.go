package sim

import (
	"testing"

	"repro/internal/stats"
	"repro/internal/trace"
)

// TestHitPathAllocationFree pins the engine's steady state to zero
// allocations: once caches and TLBs are warm, replaying hitting
// references must not allocate at all — the per-reference hot path is
// compares and counter arithmetic only. Guards against regressions like
// a map rehash, interface boxing, or a fmt call sneaking into Step.
func TestHitPathAllocationFree(t *testing.T) {
	for _, vm := range []string{VMUltrix, VMMach, VMIntel, VMPARISC, VMNoTLB, VMBase} {
		t.Run(vm, func(t *testing.T) {
			cfg := Default(vm)
			cfg.WarmupInstrs = 0
			e, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			refs := []trace.Ref{
				{PC: 0x1000, Kind: trace.None},
				{PC: 0x1004, Data: 0x20000, Kind: trace.Load},
				{PC: 0x1008, Data: 0x20008, Kind: trace.Store},
			}
			tr := &trace.Trace{Name: "hitloop", Refs: refs}
			if err := e.Begin(tr); err != nil {
				t.Fatal(err)
			}
			// Prime: the first pass takes every miss (fills lines, walks
			// page tables); later passes are pure hits.
			for i := range refs {
				if err := e.Step(&refs[i]); err != nil {
					t.Fatal(err)
				}
			}
			avg := testing.AllocsPerRun(200, func() {
				for i := range refs {
					if err := e.Step(&refs[i]); err != nil {
						t.Fatal(err)
					}
				}
			})
			if avg != 0 {
				t.Errorf("%s: hit-path Step allocates %.2f objects per 3-ref pass, want 0", vm, avg)
			}
		})
	}
}

// TestRunSteadyStateAllocationFree covers the same budget through Run's
// specialized loop: with the engine, trace, and validation memo warm, a
// whole-trace replay must not allocate.
func TestRunSteadyStateAllocationFree(t *testing.T) {
	cfg := Default(VMUltrix)
	cfg.WarmupInstrs = 0
	tr := tr(t, "gcc", 20_000)
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(tr); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(3, func() {
		// Finish returns a fresh *Result (one allocation we tolerate);
		// everything per-reference must be free.
		if _, err := e.Run(tr); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 1 {
		t.Errorf("steady-state Run allocates %.2f objects per replay, want <= 1 (the Result)", avg)
	}
}

// TestMulticoreRerunAllocationFree extends the budget to the cluster
// under demand paging: with the cores, the shared kernel (full, so
// every fault evicts and shoots down) and the trace warm, a whole 4-core
// replay may allocate only its Result and the PerCore slice.
func TestMulticoreRerunAllocationFree(t *testing.T) {
	tr := mcTrace(t, 4, 40_000)
	for _, policy := range []string{"random", "lru"} {
		t.Run(policy, func(t *testing.T) {
			cfg := Default(VMUltrix)
			cfg.WarmupInstrs = 0
			cfg.Cores = 4
			cfg.OSPolicy = policy
			cfg.MemFrames = 256
			cfg.ShootdownCost = 60
			m, err := NewMulticore(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := m.Run(tr)
			if err != nil {
				t.Fatal(err)
			}
			if res.Counters.Events[stats.Shootdown] == 0 {
				t.Fatal("warm-up run fired no shootdowns; the pin would not cover eviction")
			}
			before := m.kern.Evictions()
			avg := testing.AllocsPerRun(3, func() {
				if _, err := m.Run(tr); err != nil {
					t.Fatal(err)
				}
			})
			if m.kern.Evictions() == before {
				t.Fatal("warm re-runs evicted nothing")
			}
			if avg > 2 {
				t.Errorf("%s: warm 4-core Run allocates %.2f objects per replay, want <= 2 (Result, PerCore)", policy, avg)
			}
		})
	}
}
