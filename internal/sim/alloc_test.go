package sim

import (
	"context"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"repro/internal/cache"
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

// TestL2ReplayAllocationFree pins the shared-L1 path's memory: once a
// log is warm, recording into it again allocates nothing beyond the run
// itself; a follower on a log with no L2 caches yet allocates at most
// its Result plus its L2 caches (one per side; one when unified); and
// followers whose caches fit the log's — at a smaller or larger L2, and
// at a larger L1 — allocate only their Results.
func TestL2ReplayAllocationFree(t *testing.T) {
	tr := tr(t, "gcc", 20_000)
	ctx := context.Background()
	for _, tc := range []struct {
		name    string
		assoc   int
		unified bool
	}{{"direct", 1, false}, {"4way", 4, false}, {"unified", 1, true}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Default(VMUltrix)
			cfg.WarmupInstrs = 5_000
			cfg.UnifiedCaches = tc.unified
			var log L2Log
			if _, err := SimulateRecord(ctx, cfg, tr, &log); err != nil {
				t.Fatal(err)
			}
			// Enough runs that an allocation of the runtime's own (a GC
			// cycle the large cache arrays trigger) rounds away.
			const runs = 20
			full := testing.AllocsPerRun(runs, func() {
				if _, err := SimulateContext(ctx, cfg, tr); err != nil {
					t.Fatal(err)
				}
			})
			rec := testing.AllocsPerRun(runs, func() {
				if _, err := SimulateRecord(ctx, cfg, tr, &log); err != nil {
					t.Fatal(err)
				}
			})
			if rec > full {
				t.Errorf("recording into a warm log allocates %.1f objects per run, the plain run %.1f", rec, full)
			}

			follower := cfg
			follower.L2SizeBytes, follower.L2Assoc = 1<<20, tc.assoc
			l2 := cache.Config{SizeBytes: follower.L2SizeBytes, LineBytes: follower.L2LineBytes, Assoc: follower.L2Assoc}
			sides := 2.0
			if tc.unified {
				sides = 1
			}
			budget := 1 + sides*testing.AllocsPerRun(runs, func() { cache.New(l2) })
			cold := testing.AllocsPerRun(runs, func() {
				log.cs = caches{}
				if _, err := ReplayL2(ctx, follower, &log); err != nil {
					t.Fatal(err)
				}
			})
			if cold > budget {
				t.Errorf("a follower on a log without L2 caches allocates %.1f objects, want <= %.1f (Result + L2 caches)", cold, budget)
			}
			smaller, larger, largerL1 := follower, follower, follower
			smaller.L2SizeBytes = 512 << 10
			larger.L2SizeBytes = 2 << 20
			largerL1.L1SizeBytes = 64 << 10
			warm := testing.AllocsPerRun(runs, func() {
				for _, c := range []Config{smaller, follower, larger, largerL1} {
					if _, err := ReplayL2(ctx, c, &log); err != nil {
						t.Fatal(err)
					}
				}
			})
			if warm > 4 {
				t.Errorf("four followers on a warm log allocate %.1f objects, want <= 4 (their Results)", warm)
			}
		})
	}
}

// TestSimulateBuildsInIdleLogs pins Simulate's reuse of idle logs: runs
// that leave the kept arrays in other states — a 16 MB L2 of 16-byte
// lines, a 4-core cluster, a kernel-attached point — come between plain
// points, and every Result must equal a fresh engine's or cluster's
// (NewEngine or NewMulticore, then Run). Once warm, a Simulate grows no
// cache arrays: it allocates the same bytes at a 4 MB L2 as at a 512 KB
// one, where a fresh engine would grow 4 MB of lines.
func TestSimulateBuildsInIdleLogs(t *testing.T) {
	tr := tr(t, "gcc", 20_000)
	at := func(vm string, l2 int, mutate func(*Config)) Config {
		c := Default(vm)
		c.L2SizeBytes, c.L2LineBytes = l2, 16
		mutate(&c)
		return c
	}
	none := func(*Config) {}
	huge := at(VMUltrix, 16<<20, none)
	cluster := at(VMIntel, 1<<20, func(c *Config) { c.Cores = 4 })
	kernel := at(VMUltrix, 2<<20, func(c *Config) { c.OSPolicy, c.MemFrames = "lru", 256 })
	small, large := at(VMNoTLB, 512<<10, none), at(VMNoTLB, 4<<20, none)
	for _, cfg := range []Config{huge, small, cluster, large, kernel, small, huge, cluster, large} {
		got, err := Simulate(cfg, tr)
		if err != nil {
			t.Fatalf("Simulate(%s): %v", cfg.Label(), err)
		}
		m, err := newMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := m.RunContext(context.Background(), tr)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Simulate(%s) differs from a fresh machine:\n got %+v\nwant %+v", cfg.Label(), got, want)
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	grown := func(cfg Config) uint64 {
		least := ^uint64(0)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := Simulate(cfg, tr); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	if s, l := grown(small), grown(large); s != l {
		t.Errorf("a warm Simulate allocates %d bytes at a 512 KB L2 but %d at 4 MB", s, l)
	}
}

// TestAccessEntrySize pins a logged access at 16 bytes: a verified log's
// checkpoint segment sits in what was the entry's padding, so no stream
// grew when checkpoints came in.
func TestAccessEntrySize(t *testing.T) {
	if n := unsafe.Sizeof(access{}); n != 16 {
		t.Fatalf("a logged access takes %d bytes, want 16", n)
	}
}
