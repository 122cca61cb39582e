package check

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/trace"
)

// shareGeometries are the sibling L2 geometries the sharing pin replays
// between; each pair differs in size, line and associativity at once.
var shareGeometries = []struct{ size, line, assoc int }{
	{256 << 10, 32, 1},
	{1 << 20, 128, 1},
	{2 << 20, 64, 4},
}

// withUncached returns a copy of tr in which every fifth data reference
// bypasses the caches — references that charge L2 misses without ever
// reaching an L2.
func withUncached(tr *trace.Trace) *trace.Trace {
	refs := append([]trace.Ref(nil), tr.Refs...)
	for i := range refs {
		if refs[i].Kind != trace.None && i%5 == 0 {
			refs[i].Flags |= trace.FlagUncached
		}
	}
	return &trace.Trace{Name: tr.Name + "-uncached", Refs: refs}
}

// TestL2ShareMatchesSimulate pins the L1-stage sharing of sweeps: for
// every registered machine that may share, under each cache/TLB variant
// and on a uniprogram and a multiprogrammed trace, every geometry in turn
// records and every sibling replays its log, and each Result — leader's
// and followers' — must be reflect.DeepEqual to sim.Simulate's. A walker
// that started branching on an L2 outcome would make a follower's
// replayed walk differ from its own and fail here. Machines whose refill
// runs on user L2 misses must be refused.
func TestL2ShareMatchesSimulate(t *testing.T) {
	const n = 24_000
	uni := genTrace(t, "gcc", n)
	traces := []*trace.Trace{uni, mpTrace(t, n, 3_000)}
	variants := []struct {
		name   string
		mutate func(*sim.Config)
		trace  *trace.Trace
	}{
		{"default", func(*sim.Config) {}, nil},
		{"unified", func(c *sim.Config) { c.UnifiedCaches = true }, nil},
		{"l1-2way", func(c *sim.Config) { c.L1Assoc = 2 }, nil},
		{"tlb2-full", func(c *sim.Config) { c.TLB2Entries = 512; c.TLB2Assoc = 0 }, nil},
		{"tlb2-4way", func(c *sim.Config) { c.TLB2Entries = 512; c.TLB2Assoc = 4 }, nil},
		{"asid-flush", func(c *sim.Config) { c.ASIDs = sim.ASIDFlush }, nil},
		{"no-warmup", func(c *sim.Config) { c.WarmupInstrs = 0 }, nil},
		{"uncached", func(*sim.Config) {}, withUncached(uni)},
	}
	ctx := context.Background()
	shared := 0
	for _, vm := range sim.AllVMs() {
		spec, err := machine.Lookup(vm)
		if err != nil {
			t.Fatal(err)
		}
		_, ok := sim.ShareKey(sim.Default(vm))
		if want := spec.Refill.Trigger != machine.TriggerCacheMiss; ok != want {
			t.Fatalf("%s (trigger %q): ShareKey ok = %v, want %v", vm, spec.Refill.Trigger, ok, want)
		}
		if !ok {
			continue
		}
		shared++
		t.Run(vm, func(t *testing.T) {
			t.Parallel()
			var log sim.L2Log
			var err error
			for _, v := range variants {
				trs := traces
				if v.trace != nil {
					trs = []*trace.Trace{v.trace}
				}
				for _, tr := range trs {
					cfgs := make([]sim.Config, len(shareGeometries))
					want := make([]*sim.Result, len(cfgs))
					for i, g := range shareGeometries {
						cfgs[i] = sim.Default(vm)
						v.mutate(&cfgs[i])
						cfgs[i].L2SizeBytes, cfgs[i].L2LineBytes, cfgs[i].L2Assoc = g.size, g.line, g.assoc
						if want[i], err = sim.Simulate(cfgs[i], tr); err != nil {
							t.Fatalf("%s/%s: Simulate(%s): %v", v.name, tr.Name, cfgs[i].Label(), err)
						}
					}
					if want[0].Counters == want[1].Counters {
						t.Fatalf("%s/%s: two L2 geometries gave equal counters; the pin would not see a wrong replay", v.name, tr.Name)
					}
					for lead := range cfgs {
						got, err := sim.SimulateRecord(ctx, cfgs[lead], tr, &log)
						if err != nil || !reflect.DeepEqual(got, want[lead]) {
							t.Fatalf("%s/%s: leader %s differs from Simulate (err %v):\n got %+v\nwant %+v",
								v.name, tr.Name, cfgs[lead].Label(), err, got, want[lead])
						}
						for f := range cfgs {
							if f == lead {
								continue
							}
							got, err := sim.ReplayL2(ctx, cfgs[f], &log)
							if err != nil || !reflect.DeepEqual(got, want[f]) {
								t.Fatalf("%s/%s: follower %s of leader %s differs from Simulate (err %v):\n got %+v\nwant %+v",
									v.name, tr.Name, cfgs[f].Label(), cfgs[lead].Label(), err, got, want[f])
							}
						}
					}
				}
			}
		})
	}
	if shared == 0 {
		t.Fatal("no registered machine may share; the pin covers nothing")
	}
}

// TestL2ShareRefused pins who may not share: organizations that walk on
// user L2 misses, an attached OS kernel, a cluster, timeline sampling and
// invariant checking get no share key, cannot record, and cannot replay
// another configuration's log. A log recorded under another key, or by
// a failed run, is refused too.
func TestL2ShareRefused(t *testing.T) {
	tr := genTrace(t, "gcc", 8_000)
	ctx := context.Background()
	var log sim.L2Log
	if _, err := sim.SimulateRecord(ctx, sim.Default(sim.VMUltrix), tr, &log); err != nil {
		t.Fatal(err)
	}
	ultrix := func(mutate func(*sim.Config)) sim.Config {
		c := sim.Default(sim.VMUltrix)
		mutate(&c)
		return c
	}
	for name, cfg := range map[string]sim.Config{
		"notlb":            sim.Default(sim.VMNoTLB),
		"spur":             sim.Default(sim.VMSPUR),
		"bounded-os":       ultrix(func(c *sim.Config) { c.OSPolicy = "lru"; c.MemFrames = 64 }),
		"cores-2":          ultrix(func(c *sim.Config) { c.Cores = 2 }),
		"sampled":          ultrix(func(c *sim.Config) { c.SampleEvery = 1_000 }),
		"check-invariants": ultrix(func(c *sim.Config) { c.CheckInvariants = true }),
	} {
		if _, ok := sim.ShareKey(cfg); ok {
			t.Errorf("%s: ShareKey accepts a configuration that may not share", name)
		}
		var own sim.L2Log
		if _, err := sim.SimulateRecord(ctx, cfg, tr, &own); !errors.Is(err, sim.ErrL2LogRefused) {
			t.Errorf("%s: SimulateRecord = %v, want ErrL2LogRefused", name, err)
		}
		if _, err := sim.ReplayL2(ctx, cfg, &log); !errors.Is(err, sim.ErrL2LogRefused) {
			t.Errorf("%s: ReplayL2 of an ultrix log = %v, want ErrL2LogRefused", name, err)
		}
	}

	other := ultrix(func(c *sim.Config) { c.L1SizeBytes = 8 << 10 })
	if _, err := sim.ReplayL2(ctx, other, &log); !errors.Is(err, sim.ErrL2LogRefused) {
		t.Errorf("another L1 size: ReplayL2 = %v, want ErrL2LogRefused", err)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := sim.SimulateRecord(cancelled, sim.Default(sim.VMUltrix), tr, &log); err == nil {
		t.Fatal("a cancelled recording succeeded")
	}
	sibling := ultrix(func(c *sim.Config) { c.L2SizeBytes = 1 << 20 })
	if _, err := sim.ReplayL2(ctx, sibling, &log); !errors.Is(err, sim.ErrL2LogRefused) {
		t.Errorf("log of a failed recording: ReplayL2 = %v, want ErrL2LogRefused", err)
	}
}
