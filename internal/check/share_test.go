package check

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// shareL1Sizes are the L1 sizes the sharing pin records and replays
// at: Table 1's smallest and largest and one between.
var shareL1Sizes = []int{1 << 10, 16 << 10, 128 << 10}

// shareGeometries are the sibling L2 geometries the sharing pin replays
// between. The first three differ in size, line and associativity at
// once. The last two are direct-mapped L2s of the 4-way one's line, one
// smaller and one larger: the larger replays the smaller's misses, which
// the 4-way L2, small enough to miss beyond the compulsory misses, must
// not.
var shareGeometries = []struct{ size, line, assoc int }{
	{256 << 10, 32, 1},
	{1 << 20, 128, 1},
	{256 << 10, 64, 4},
	{128 << 10, 64, 1},
	{4 << 20, 64, 1},
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
// every registered machine, under each cache/TLB variant and on a
// uniprogram and a multiprogrammed trace, each L1 size in turn records
// (under a different L2 geometry each time) and every configuration of
// its key at that L1 size or larger replays the log, in reverse and then
// in sim.CompareShared's order. Each Result — leader's and followers' —
// must be reflect.DeepEqual to a fresh engine's. A walker that started
// branching on a cache outcome would make a follower's replayed walk
// differ from its own and fail here. Machines whose refill runs on user
// L2 misses (notlb, spur) share only with a direct-mapped L1, so they
// skip the 2-way L1 variant, and their followers may instead be refused
// as diverged. In the second pass every diverged follower resumes
// (sim.Rerecord), as a sweep worker runs it, and the larger L1s after it
// replay from its run; each such machine must replay, diverge and resume
// past reference 0 at least once across the pin.
func TestL2ShareMatchesSimulate(t *testing.T) {
	const n = 24_000
	uni := genTrace(t, "gcc", n)
	// Six address spaces of three programs, whose same-address lines
	// contend for the same sets of the virtual L2s: a 4-way L2 then
	// misses beyond the compulsory misses, and its LRU state shows.
	mp, err := workload.Multiprogram([]string{"gcc", "ijpeg", "vortex", "gcc", "ijpeg", "vortex"}, 11, n, 1_000)
	if err != nil {
		t.Fatal(err)
	}
	traces := []*trace.Trace{uni, mp}
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
	verifiedVMs := 0
	for _, vm := range sim.AllVMs() {
		spec, err := machine.Lookup(vm)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := sim.ShareKey(sim.Default(vm)); !ok {
			t.Fatalf("%s: ShareKey refuses a direct-mapped L1", vm)
		}
		verified := spec.Refill.Trigger == machine.TriggerCacheMiss
		if verified {
			verifiedVMs++
		}
		t.Run(vm, func(t *testing.T) {
			t.Parallel()
			var log sim.L2Log
			var n shareCounts
			for _, v := range variants {
				if verified && v.name == "l1-2way" {
					continue // may not share (TestL2ShareRefused)
				}
				trs := traces
				if v.trace != nil {
					trs = []*trace.Trace{v.trace}
				}
				for _, tr := range trs {
					shareLockstep(t, ctx, &log, vm, v.name, v.mutate, tr, verified, &n)
				}
			}
			t.Logf("%d followers replayed, %d diverged, %d resumed (%d past reference 0)",
				n.replayed, n.diverged, n.resumed, n.resumedLate)
			if verified && (n.replayed == 0 || n.diverged == 0 || n.resumedLate == 0) {
				t.Errorf("%d followers replayed, %d diverged and %d resumed past reference 0; the pin must see each",
					n.replayed, n.diverged, n.resumedLate)
			}
		})
	}
	if verifiedVMs == 0 {
		t.Fatal("no registered machine walks on cache misses; the pin covers no verified replay")
	}
}

// shareCounts tallies a sharing pin's followers by outcome: replayed,
// diverged, and of the diverged, resumed, and resumed past reference 0.
type shareCounts struct{ replayed, diverged, resumed, resumedLate int }

// freshRun is the reference every shared run must equal: a new engine,
// in cache arrays of its own, run over tr.
func freshRun(t *testing.T, cfg sim.Config, tr *trace.Trace) *sim.Result {
	t.Helper()
	e, err := sim.NewEngine(cfg)
	if err != nil {
		t.Fatalf("NewEngine(%s): %v", cfg.Label(), err)
	}
	res, err := e.Run(tr)
	if err != nil {
		t.Fatalf("%s: Run(%s): %v", tr.Name, cfg.Label(), err)
	}
	return res
}

// shareLockstep is one variant and trace of TestL2ShareMatchesSimulate.
// A follower of a verified log (verified: the machine walks on user L2
// misses) may be refused as diverged; in the second pass it then resumes.
func shareLockstep(t *testing.T, ctx context.Context, log *sim.L2Log, vm, variant string, mutate func(*sim.Config), tr *trace.Trace, verified bool, n *shareCounts) {
	t.Helper()
	g := len(shareGeometries)
	cfgs := make([]sim.Config, 0, len(shareL1Sizes)*g)
	want := make([]*sim.Result, 0, cap(cfgs))
	for _, l1 := range shareL1Sizes {
		for _, geom := range shareGeometries {
			c := sim.Default(vm)
			mutate(&c)
			c.L1SizeBytes = l1
			c.L2SizeBytes, c.L2LineBytes, c.L2Assoc = geom.size, geom.line, geom.assoc
			cfgs, want = append(cfgs, c), append(want, freshRun(t, c, tr))
		}
	}
	if want[0].Counters == want[1].Counters || want[0].Counters == want[g].Counters {
		t.Fatalf("%s/%s: two cache geometries gave equal counters; the pin would not see a wrong replay", variant, tr.Name)
	}
	for k := range shareL1Sizes {
		lead := k*g + k%g
		got, err := sim.SimulateRecord(ctx, cfgs[lead], tr, log)
		if err != nil || !reflect.DeepEqual(got, want[lead]) {
			t.Fatalf("%s/%s: leader %s differs from a fresh engine (err %v):\n got %+v\nwant %+v",
				variant, tr.Name, cfgs[lead].Label(), err, got, want[lead])
		}
		key, _ := sim.ShareKey(cfgs[lead])
		var followers []int
		for f := k * g; f < len(cfgs); f++ {
			if fk, _ := sim.ShareKey(cfgs[f]); fk == key {
				followers = append(followers, f)
			}
		}
		slices.SortStableFunc(followers, func(a, b int) int { return sim.CompareShared(cfgs[b], cfgs[a]) })
		for pass := range 2 {
			for _, f := range followers {
				got, err := sim.ReplayL2(ctx, cfgs[f], log)
				var div *sim.DivergedError
				if verified && errors.As(err, &div) {
					n.diverged++
					if pass == 0 {
						continue // the reverse pass keeps the leader's log
					}
					n.resumed++
					if div.From > 0 {
						n.resumedLate++
					}
					got, err = sim.Rerecord(ctx, cfgs[f], tr, log, err)
				} else {
					n.replayed++
				}
				if err != nil || !reflect.DeepEqual(got, want[f]) {
					t.Fatalf("%s/%s: follower %s of leader %s differs from a fresh engine (err %v, diverged %v):\n got %+v\nwant %+v",
						variant, tr.Name, cfgs[f].Label(), cfgs[lead].Label(), err, div, got, want[f])
				}
			}
			slices.Reverse(followers)
		}
	}
}

// TestL2ShareRefused pins who may not share: a set-associative L1 on an
// organization that walks on user L2 misses, an attached OS kernel, a
// cluster, timeline sampling and invariant checking get no share key,
// cannot record, and cannot replay another configuration's log. A log
// recorded at a larger L1, under another key (a set-associative L1 of
// another size, a notlb log under another L2 geometry or offered to
// ultrix) or by a failed run is refused too.
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
	twoWayL1 := func(vm string) sim.Config {
		c := sim.Default(vm)
		c.L1Assoc = 2
		return c
	}
	for name, cfg := range map[string]sim.Config{
		"notlb-l1-2way":    twoWayL1(sim.VMNoTLB),
		"spur-l1-2way":     twoWayL1(sim.VMSPUR),
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

	smaller := ultrix(func(c *sim.Config) { c.L1SizeBytes = 8 << 10 })
	if _, err := sim.ReplayL2(ctx, smaller, &log); !errors.Is(err, sim.ErrL2LogRefused) {
		t.Errorf("a smaller L1: ReplayL2 = %v, want ErrL2LogRefused", err)
	}
	var twoWay sim.L2Log
	if _, err := sim.SimulateRecord(ctx, ultrix(func(c *sim.Config) { c.L1Assoc = 2 }), tr, &twoWay); err != nil {
		t.Fatal(err)
	}
	larger := ultrix(func(c *sim.Config) { c.L1Assoc, c.L1SizeBytes = 2, 64<<10 })
	if _, err := sim.ReplayL2(ctx, larger, &twoWay); !errors.Is(err, sim.ErrL2LogRefused) {
		t.Errorf("a 2-way L1 at another size: ReplayL2 = %v, want ErrL2LogRefused", err)
	}

	notlb := sim.Default(sim.VMNoTLB)
	var notlbLog sim.L2Log
	if _, err := sim.SimulateRecord(ctx, notlb, tr, &notlbLog); err != nil {
		t.Fatal(err)
	}
	otherL2 := notlb
	otherL2.L2SizeBytes *= 2
	for name, cfg := range map[string]sim.Config{
		"notlb under another L2 geometry": otherL2,
		"ultrix":                          sim.Default(sim.VMUltrix),
	} {
		var div *sim.DivergedError
		if _, err := sim.ReplayL2(ctx, cfg, &notlbLog); !errors.Is(err, sim.ErrL2LogRefused) || errors.As(err, &div) {
			t.Errorf("%s: ReplayL2 of a notlb log = %v, want ErrL2LogRefused and no divergence", name, err)
		}
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

// TestL2ShareVerifiesL2Outcomes pins the verified replay's L2 step on a
// hand-built notlb trace whose follower's L1 step agrees with the
// recording but whose L2 does not. Recorder 1 KB and follower 2 KB L1s
// (16-byte lines) sit in front of one 64 KB L2 of 64-byte lines. The
// user's line x shares its L2 set with the first line of the notlb user
// handler, but no L1 set with any handler line. x is filled into the L2
// (its own walk's handler fetches hit the L1s), and another user line
// evicts it from both L1s. Then a user line in the handler's 1 KB L1 set,
// but not its 2 KB one, evicts the handler line from the recorder's L1
// only, and the walk it starts fetches the handler line: the recorder's
// L2 loses x, the follower's keeps it. When x is fetched again it misses
// both L1s; the recorder misses its L2 and walks, the follower hits and
// does not. Only the L2-step check sees this, and without it the
// follower would replay the recorder's walk. Resumed, the follower must
// equal a fresh engine.
func TestL2ShareVerifiesL2Outcomes(t *testing.T) {
	// The page 0x401000 puts x's L2 set (address bits 6–15) on that of
	// the user handler's code at addr.HandlerPC(6), page 0xff0b1000.
	const (
		page = 0x401000
		x    = page + 0x030 // L1 set 3 in both; L2 set of the user handler
		v    = x ^ 0x800    // L1 set 3 in both; another L2 set
		w    = page + 0x400 // L1 set 0 at 1 KB (the handler's), 64 at 2 KB
		p0   = page + 0x200 // a first walk, which also runs the root handler
		q    = page + 0x240 // a walk that reloads the user handler's L1 lines
	)
	var refs []trace.Ref
	for _, pc := range []uint64{p0, q, x, v, w, x} {
		refs = append(refs, trace.Ref{PC: pc})
	}
	tr := &trace.Trace{Name: "l2-step", Refs: refs}
	cfg := sim.Default(sim.VMNoTLB)
	cfg.WarmupInstrs = 0
	cfg.L1SizeBytes, cfg.L1LineBytes = 1<<10, 16
	cfg.L2SizeBytes, cfg.L2LineBytes = 64<<10, 64
	follower := cfg
	follower.L1SizeBytes = 2 << 10

	ctx := context.Background()
	var log sim.L2Log
	rec, err := sim.SimulateRecord(ctx, cfg, tr, &log)
	if err != nil {
		t.Fatal(err)
	}
	want := freshRun(t, follower, tr)
	if rec.Counters.Interrupts != want.Counters.Interrupts+1 {
		t.Fatalf("the recorder took %d interrupts and the follower %d; the trace no longer walks where the follower does not",
			rec.Counters.Interrupts, want.Counters.Interrupts)
	}
	_, err = sim.ReplayL2(ctx, follower, &log)
	var div *sim.DivergedError
	if !errors.As(err, &div) || div.Level != 2 || !errors.Is(err, sim.ErrL2LogRefused) {
		t.Fatalf("ReplayL2 = %v, want a divergence at the L2 step wrapping ErrL2LogRefused", err)
	}
	if got, err := sim.Rerecord(ctx, follower, tr, &log, err); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed follower differs from a fresh engine (err %v)", err)
	}
}

// resumeTrace is a hand-built trace of n references of address space 1
// on which, for notlb and spur with 16-byte L1 lines and one 64 KB L2 of
// 64-byte lines, a 2 KB L1 follower of a 1 KB L1 recorder diverges at
// reference p. Every reference fetches line f, which both L1s keep,
// except for a gadget that ends at p: the user line x, then y, which
// evicts x from the 1 KB L1 only, then z, which evicts x from the L2
// only, then x again at p, which misses the recorder's L1 and L2, so the
// recorder walks, and hits the follower's L1. Every 500th reference
// before the gadget fetches g, which evicts f from the 1 KB L1 only, so
// the recorder pays L1 misses on f that the follower does not. No line
// shares an L1 or L2 set with the handler code notlb fetches.
func resumeTrace(n, p int) *trace.Trace {
	const (
		f = 0x500200 // 1 KB L1 set 32, 2 KB set 32, L2 set 8
		g = 0x500600 // 1 KB L1 set 32, 2 KB set 96, L2 set 24
		x = 0x4000a0 // 1 KB L1 set 10, 2 KB set 10, L2 set 2
		y = 0x4004a0 // 1 KB L1 set 10, 2 KB set 74, L2 set 18
		z = 0x4100b0 // L1 set 11 in both, L2 set 2
	)
	refs := make([]trace.Ref, n)
	for i := range refs {
		pc := uint64(f)
		switch {
		case i == p-3 || i == p:
			pc = x
		case i == p-2:
			pc = y
		case i == p-1:
			pc = z
		case i < p-3 && i%500 == 250:
			pc = g
		}
		refs[i] = trace.Ref{PC: pc, ASID: 1}
	}
	return &trace.Trace{Name: fmt.Sprintf("resume-%d-at-%d", n, p), Refs: refs}
}

// TestResumeAtCheckpoints pins where a diverged notlb or spur follower
// resumes, on hand-built traces (resumeTrace) that place the divergence
// in segment 0, exactly at a checkpoint, in the last partial segment,
// and before, at and after the warm boundary. The follower must be
// refused as diverged with From the last checkpoint before the
// divergence, and its run must resume there and equal a fresh engine's,
// also when every reference before the one ahead of the checkpoint is
// replaced: a resume reads none of them. A larger L1 then replays from
// the resumed recording, or resumes from it in turn, and must equal a
// fresh engine's too.
func TestResumeAtCheckpoints(t *testing.T) {
	const seg = 4096
	ctx := context.Background()
	for _, tc := range []struct {
		name       string
		n, p, warm int
	}{
		{"segment-0", 10_000, 2_000, 1_000},
		{"at-checkpoint", 10_000, seg, 1_000},
		{"last-partial-segment", 3*seg + 700, 3*seg + 300, 1_000},
		{"before-warm", 4 * seg, 6_000, 2 * seg},
		{"at-warm", 4 * seg, 2 * seg, 2 * seg},
		{"after-warm", 4 * seg, 9_000, 5_000},
		{"resume-at-warm", 4 * seg, 9_000, 2 * seg},
	} {
		tr := resumeTrace(tc.n, tc.p)
		from := tc.p / seg * seg
		replaced := &trace.Trace{Name: tr.Name, Refs: slices.Clone(tr.Refs)}
		for i := range max(from-1, 0) {
			replaced.Refs[i].PC = 0x600000 + uint64(i)*64
		}
		for _, vm := range []string{sim.VMNoTLB, sim.VMSPUR} {
			t.Run(tc.name+"/"+vm, func(t *testing.T) {
				cfg := sim.Default(vm)
				cfg.WarmupInstrs = tc.warm
				cfg.L1LineBytes, cfg.L2SizeBytes, cfg.L2LineBytes = 16, 64<<10, 64
				cfgs := []sim.Config{cfg, cfg, cfg}
				for i, l1 := range []int{1 << 10, 2 << 10, 4 << 10} {
					cfgs[i].L1SizeBytes = l1
				}
				var log sim.L2Log
				if got, err := sim.SimulateRecord(ctx, cfgs[0], tr, &log); err != nil || !reflect.DeepEqual(got, freshRun(t, cfgs[0], tr)) {
					t.Fatalf("recording differs from a fresh engine (err %v)", err)
				}
				_, refusal := sim.ReplayL2(ctx, cfgs[1], &log)
				var div *sim.DivergedError
				if !errors.As(refusal, &div) || div.From != from {
					t.Fatalf("ReplayL2 = %v, want a divergence resuming from reference %d", refusal, from)
				}
				got, err := sim.Rerecord(ctx, cfgs[1], replaced, &log, refusal)
				if want := freshRun(t, cfgs[1], tr); err != nil || !reflect.DeepEqual(got, want) {
					t.Fatalf("resumed run differs from a fresh engine (err %v):\n got %+v\nwant %+v", err, got, want)
				}
				if log.Resumed() != from {
					t.Fatalf("the resumed run started at reference %d, want %d", log.Resumed(), from)
				}
				got, err = sim.ReplayL2(ctx, cfgs[2], &log)
				if errors.Is(err, sim.ErrL2LogRefused) {
					got, err = sim.Rerecord(ctx, cfgs[2], tr, &log, err)
				}
				if want := freshRun(t, cfgs[2], tr); err != nil || !reflect.DeepEqual(got, want) {
					t.Fatalf("the 4 KB L1 after the resumed recording differs from a fresh engine (err %v)", err)
				}
			})
		}
	}
}
