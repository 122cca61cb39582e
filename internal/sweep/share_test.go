package sweep

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"reflect"
	"sync"
	"testing"

	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/simerr"
	"repro/internal/trace"
	"repro/internal/workload"
)

// shareConfigs is a sweep that forms one share group: ultrix at two L1
// sizes, largest first, × three L2 sizes, which runs smallest L1 first
// (points 3–5, then 0–2; point 3 leads); then a notlb point with a 2-way
// L1, which may not share.
func shareConfigs() []sim.Config {
	base := sim.Default(sim.VMUltrix)
	base.WarmupInstrs = 1_000
	cfgs := Space{
		Base:    base,
		L1Sizes: []int{8 << 10, 4 << 10},
		L2Sizes: []int{256 << 10, 1 << 20, 2 << 20},
	}.Configs()
	notlb := sim.Default(sim.VMNoTLB)
	notlb.L1Assoc = 2
	return append(cfgs, notlb)
}

// shareRunOrder is the order in which one worker runs shareConfigs.
var shareRunOrder = []int{3, 4, 5, 0, 1, 2, 6}

// fresh runs cfg over tr on a new engine, or a new cluster when
// cfg.Cores > 1, in cache arrays of its own: the reference a point run
// in a worker's reused arrays, recorded, replayed or resumed must equal.
func fresh(cfg sim.Config, tr *trace.Trace) (*sim.Result, error) {
	if cfg.Cores > 1 {
		m, err := sim.NewMulticore(cfg)
		if err != nil {
			return nil, err
		}
		return m.Run(tr)
	}
	e, err := sim.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	return e.Run(tr)
}

// serialResults simulates every configuration on its own, on a fresh
// engine.
func serialResults(t *testing.T, tr *trace.Trace, cfgs []sim.Config) []*sim.Result {
	t.Helper()
	out := make([]*sim.Result, len(cfgs))
	for i, cfg := range cfgs {
		res, err := fresh(cfg, tr)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Label(), err)
		}
		out[i] = res
	}
	return out
}

// requireSerial fails unless point i completed with exactly the serial
// Result.
func requireSerial(t *testing.T, pts []Point, want []*sim.Result, i int) {
	t.Helper()
	if pts[i].Err != nil || !reflect.DeepEqual(pts[i].Result, want[i]) {
		t.Fatalf("point %d (%s) differs from a serial run (err %v)", i, pts[i].Config.Label(), pts[i].Err)
	}
}

// truncateOn returns a hook that halves tr when point idx starts. Points
// that replay an L2 log never read the trace, so they still match a
// serial run of the whole trace; a point that ran the full engine after
// the cut would not.
func truncateOn(tr *trace.Trace, idx int) func(context.Context, int, int) error {
	return func(_ context.Context, i, _ int) error {
		if i == idx {
			tr.Refs = tr.Refs[:len(tr.Refs)/2]
		}
		return nil
	}
}

// chain runs hooks in order, returning the first error.
func chain(hooks ...func(context.Context, int, int) error) func(context.Context, int, int) error {
	return func(ctx context.Context, i, attempt int) error {
		for _, h := range hooks {
			if err := h(ctx, i, attempt); err != nil {
				return err
			}
		}
		return nil
	}
}

func TestSharedSweepMatchesSerial(t *testing.T) {
	tr := faultTrace(t, 8_000)
	cfgs := shareConfigs()
	want := serialResults(t, tr, cfgs)
	for _, workers := range []int{1, 2, 3} {
		pts, err := RunWithOptions(context.Background(), tr, cfgs, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for i := range cfgs {
			requireSerial(t, pts, want, i)
		}
	}
}

// TestShareFollowersReplay: followers of a successful leader — the
// first one at a larger L1 — replay its log instead of reading the
// trace.
func TestShareFollowersReplay(t *testing.T) {
	tr := faultTrace(t, 8_000)
	cfgs := shareConfigs()[:4]
	want := serialResults(t, tr, cfgs)
	pts, err := RunWithOptions(context.Background(), tr, cfgs, Options{
		Workers: 1, PointHook: truncateOn(tr, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfgs {
		requireSerial(t, pts, want, i)
	}
}

// divergedGroup is a notlb share group, L1 sizes largest first, on
// faultTrace(8_000): run smallest L1 first, the 32 KB point (2) diverges
// from the 16 KB leader's (3) log, and the 64 KB and 128 KB points (1,
// 0) diverge from that log too but replay from the 32 KB point's.
func divergedGroup() []sim.Config {
	base := sim.Default(sim.VMNoTLB)
	base.WarmupInstrs = 1_000
	base.L1LineBytes, base.L2SizeBytes, base.L2LineBytes = 32, 256<<10, 16
	return Space{Base: base, L1Sizes: []int{128 << 10, 64 << 10, 32 << 10, 16 << 10}}.Configs()
}

// TestShareDivergedFollowerRecords: a notlb follower whose walks leave
// the leader's (its log refuses it as diverged) runs in full, resumed
// from the leader's last checkpoint before the divergence, and records,
// and the larger L1s after it replay from that recording, not reading
// the trace. Were they served by the leader's log, they would diverge
// and read the trace, which is halved when they start.
func TestShareDivergedFollowerRecords(t *testing.T) {
	tr := faultTrace(t, 8_000)
	cfgs := divergedGroup()
	ctx := context.Background()
	var log sim.L2Log
	outcome := func(i int) error {
		_, err := sim.ReplayL2(ctx, cfgs[i], &log)
		return err
	}
	for _, c := range []struct {
		rec       int
		followers []int
		diverge   bool
	}{{3, []int{2, 1, 0}, true}, {2, []int{1, 0}, false}} {
		if _, err := sim.SimulateRecord(ctx, cfgs[c.rec], tr, &log); err != nil {
			t.Fatal(err)
		}
		for _, f := range c.followers {
			var div *sim.DivergedError
			if err := outcome(f); errors.As(err, &div) != c.diverge || !c.diverge && err != nil {
				t.Fatalf("%s from the log of %s: %v, diverged want %v", cfgs[f].Label(), cfgs[c.rec].Label(), err, c.diverge)
			}
		}
	}
	want := serialResults(t, tr, cfgs)
	pts, err := RunWithOptions(ctx, tr, cfgs, Options{Workers: 1, PointHook: truncateOn(tr, 1)})
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfgs {
		requireSerial(t, pts, want, i)
	}
}

// TestVerifiedSharingCounts pins how much of notlb's figure 6–7 space
// verified sharing serves over the 20k-instruction seed-42 gcc and vortex
// traces. The space forms 30 groups of 8 per trace; run as a sweep worker
// runs them (a diverged follower resumes and records), at least the
// recorded number of the 210 followers must replay rather than diverge,
// the resumed runs must simulate exactly the recorded number of
// references, and each Result must equal a fresh engine's. A change that
// silently sent followers to the full engine, or resumed runs back to
// reference 0, fails here.
func TestVerifiedSharingCounts(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		bench            string
		replays, resumed int
	}{
		// Re-recorded from reference 0, the 16 and 4 diverged followers
		// would simulate 320,000 and 80,000 references.
		{"gcc", 194, 115_200},
		{"vortex", 206, 51_328},
	} {
		p, err := workload.ByName(tc.bench)
		if err != nil {
			t.Fatal(err)
		}
		tr := workload.Generate(p, 42, 20_000)
		cfgs := fig67Configs(sim.VMNoTLB)
		groups := shareGroups(cfgs, make([]bool, len(cfgs)))
		if len(groups) != 30 {
			t.Fatalf("%s: %d groups, want 30", tc.bench, len(groups))
		}
		var log sim.L2Log
		replays, divergences, resumed := 0, 0, 0
		for _, g := range groups {
			got, err := sim.SimulateRecord(ctx, cfgs[g[0]], tr, &log)
			for k, i := range g {
				if k > 0 {
					got, err = sim.ReplayL2(ctx, cfgs[i], &log)
					var div *sim.DivergedError
					if errors.As(err, &div) {
						divergences++
						got, err = sim.Rerecord(ctx, cfgs[i], tr, &log, err)
						resumed += tr.Len() - log.Resumed()
					} else {
						replays++
					}
				}
				want, werr := fresh(cfgs[i], tr)
				if err != nil || werr != nil || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: %s differs from a fresh engine (err %v, %v)", tc.bench, cfgs[i].Label(), err, werr)
				}
			}
		}
		t.Logf("%s: %d followers replayed, %d diverged, whose resumed runs simulated %d references",
			tc.bench, replays, divergences, resumed)
		if replays < tc.replays {
			t.Errorf("%s: %d of %d followers replayed, want at least %d", tc.bench, replays, replays+divergences, tc.replays)
		}
		if resumed != tc.resumed {
			t.Errorf("%s: the resumed runs simulated %d references, want %d", tc.bench, resumed, tc.resumed)
		}
	}
}

// TestShareLeaderDeterministicFailure: when the leader fails for good,
// its followers run the full engine and still match a serial run.
func TestShareLeaderDeterministicFailure(t *testing.T) {
	tr := faultTrace(t, 8_000)
	cfgs := shareConfigs()
	want := serialResults(t, tr, cfgs)
	lead := shareRunOrder[0]
	pts, err := RunWithOptions(context.Background(), tr, cfgs, Options{
		Workers: 1, Retries: 3, PointHook: faults.FailFirst(lead, 99, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(pts[lead].Err, faults.ErrInjected) || pts[lead].Attempts != 1 {
		t.Fatalf("leader: err %v after %d attempts, want one ErrInjected attempt", pts[lead].Err, pts[lead].Attempts)
	}
	for _, i := range shareRunOrder[1:] {
		requireSerial(t, pts, want, i)
	}
}

// TestShareLeaderTransientFailureRetried: a leader that fails once,
// transiently, records on its retry, and its followers replay.
func TestShareLeaderTransientFailureRetried(t *testing.T) {
	tr := faultTrace(t, 8_000)
	cfgs := shareConfigs()[:3]
	want := serialResults(t, tr, cfgs)
	pts, err := RunWithOptions(context.Background(), tr, cfgs, Options{
		Workers: 1, Retries: 1,
		PointHook: chain(faults.FailFirst(0, 1, simerr.ErrPointTimeout), truncateOn(tr, 1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].Attempts != 2 {
		t.Fatalf("leader took %d attempts, want 2", pts[0].Attempts)
	}
	for i := range cfgs {
		requireSerial(t, pts, want, i)
	}
}

// TestShareFollowerPanicQuarantined: a panicking follower is quarantined
// alone; its leader and siblings complete.
func TestShareFollowerPanicQuarantined(t *testing.T) {
	tr := faultTrace(t, 8_000)
	cfgs := shareConfigs()
	want := serialResults(t, tr, cfgs)
	pts, err := RunWithOptions(context.Background(), tr, cfgs, Options{
		Workers: 2, PointHook: faults.PanicOn(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(pts[1].Err, simerr.ErrInternalPanic) {
		t.Fatalf("follower err = %v, want ErrInternalPanic", pts[1].Err)
	}
	for i := range cfgs {
		if i != 1 {
			requireSerial(t, pts, want, i)
		}
	}
}

// TestShareResumeAfterJournalledLeader: when a group's first point is
// journalled, the next point leads on resume and no journalled point is
// simulated again.
func TestShareResumeAfterJournalledLeader(t *testing.T) {
	tr := faultTrace(t, 8_000)
	cfgs := shareConfigs()[:3]
	want := serialResults(t, tr, cfgs)
	dir := killedSweep(t, tr, cfgs, 1)

	var mu sync.Mutex
	simulated := map[int]bool{}
	record := func(_ context.Context, i, _ int) error {
		mu.Lock()
		simulated[i] = true
		mu.Unlock()
		return nil
	}
	pts, err := RunWithOptions(context.Background(), tr, cfgs, Options{
		Workers: 1, JournalDir: dir, Resume: true,
		PointHook: chain(record, truncateOn(tr, 2)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !pts[0].Resumed || simulated[0] {
		t.Fatalf("journalled point 0: resumed %v, simulated again %v", pts[0].Resumed, simulated[0])
	}
	if !simulated[1] || !simulated[2] {
		t.Fatalf("points 1 and 2 not simulated on resume: %v", simulated)
	}
	for i := range cfgs {
		requireSerial(t, pts, want, i)
	}
}

// TestShareCancelMidGroup: cancelling the campaign inside a group marks
// the rest of the group as never dispatched — no PointDone call — and
// fails every later point as cancelled; a resume completes the campaign
// byte-identically. (A later group may still reach the idle worker, as a
// point may today: the dispatcher's select sees both a ready worker and
// the cancellation.)
func TestShareCancelMidGroup(t *testing.T) {
	tr := faultTrace(t, 8_000)
	cfgs := shareConfigs()
	clean, err := RunWithOptions(context.Background(), tr, cfgs, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	finished := map[int]bool{}
	dir := t.TempDir()
	lead, second := shareRunOrder[0], shareRunOrder[1]
	pts, err := RunWithOptions(ctx, tr, cfgs, Options{
		Workers: 1, JournalDir: dir,
		PointHook: func(_ context.Context, i, _ int) error {
			if i == second {
				cancel()
			}
			return nil
		},
		PointDone: func(i int, _ Point) {
			mu.Lock()
			finished[i] = true
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if pts[lead].Err != nil || !finished[lead] || !finished[second] {
		t.Fatalf("leader err %v; finished %v", pts[lead].Err, finished)
	}
	rest := shareRunOrder[2:]
	for _, i := range rest[:len(rest)-1] {
		if !errors.Is(pts[i].Err, simerr.ErrCancelled) || finished[i] {
			t.Fatalf("rest of the group, point %d: err %v, PointDone called %v", i, pts[i].Err, finished[i])
		}
	}
	if i := rest[len(rest)-1]; !errors.Is(pts[i].Err, simerr.ErrCancelled) {
		t.Fatalf("point %d after the cancel: err %v", i, pts[i].Err)
	}
	resumed, err := RunWithOptions(context.Background(), tr, cfgs, Options{Workers: 2, JournalDir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfgs {
		if got, want := csvRow("ijpeg", resumed[i]), csvRow("ijpeg", clean[i]); got != want {
			t.Fatalf("point %d CSV diverged after resume:\n  resumed: %s\n  clean:   %s", i, got, want)
		}
	}
}

// TestShareInvalidFollowerL2: a follower whose L2 geometry, or L1 size
// above the leader's, is invalid fails exactly as Simulate fails, and its
// siblings are unaffected.
func TestShareInvalidFollowerL2(t *testing.T) {
	tr := faultTrace(t, 8_000)
	for _, tc := range []struct {
		name   string
		mutate func(cfgs []sim.Config)
	}{
		{"3MB-L2", func(cfgs []sim.Config) { cfgs[1].L2SizeBytes = 3 << 20 }},
		// Point 0 leads at 2 KB, below the 3 KB follower.
		{"3KB-L1", func(cfgs []sim.Config) { cfgs[0].L1SizeBytes, cfgs[1].L1SizeBytes = 2<<10, 3<<10 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfgs := shareConfigs()[:3]
			tc.mutate(cfgs)
			_, simErr := sim.Simulate(cfgs[1], tr)
			if !errors.Is(simErr, simerr.ErrConfigInvalid) {
				t.Fatalf("Simulate of %s = %v, want ErrConfigInvalid", tc.name, simErr)
			}
			pts, err := RunWithOptions(context.Background(), tr, cfgs, Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if pts[1].Err == nil || pts[1].Err.Error() != simErr.Error() || simerr.Category(pts[1].Err) != "config" {
				t.Fatalf("follower err = %v, want Simulate's %v", pts[1].Err, simErr)
			}
			want := serialResults(t, tr, []sim.Config{cfgs[0], cfgs[2]})
			if !reflect.DeepEqual(pts[0].Result, want[0]) || !reflect.DeepEqual(pts[2].Result, want[1]) {
				t.Fatal("siblings of the invalid follower differ from a serial run")
			}
		})
	}
}

// TestWorkerCarriesNoState runs, on one worker and so in one set of
// cache arrays, points that leave those arrays in every state a point
// can: a notlb run at a 4 MB/16-B L2, a TLB-refilled share group, a group
// whose leader fails before it runs, a point that fails mid-run after
// filling lines (first-touch exhausting a frame budget), a quarantined
// panic, then full and replayed points at smaller and larger geometries,
// set-associative and unified ones among them, a notlb group whose
// followers diverge and record, and 2- and 4-core clusters between
// single-core points. It sweeps them twice, on two traces, so the second
// call's worker starts with the first call's log. Every point that
// succeeds must equal a fresh engine's (NewEngine or NewMulticore).
func TestWorkerCarriesNoState(t *testing.T) {
	at := func(vm string, l1, l1Line, l2, l2Line int, mutate ...func(*sim.Config)) sim.Config {
		c := sim.Default(vm)
		c.WarmupInstrs = 1_000
		c.L1SizeBytes, c.L1LineBytes, c.L2SizeBytes, c.L2LineBytes = l1, l1Line, l2, l2Line
		for _, m := range mutate {
			m(&c)
		}
		return c
	}
	group := func(vm string, l1s []int, l1Line int, l2s []int, l2Line int, mutate ...func(*sim.Config)) []sim.Config {
		var out []sim.Config
		for _, l1 := range l1s {
			for _, l2 := range l2s {
				out = append(out, at(vm, l1, l1Line, l2, l2Line, mutate...))
			}
		}
		return out
	}
	budget := func(c *sim.Config) { c.MemFrames = 24 }
	unified := func(c *sim.Config) { c.UnifiedCaches = true }
	fourWay := func(c *sim.Config) { c.L2Assoc = 4 }
	cores := func(n int) func(*sim.Config) { return func(c *sim.Config) { c.Cores = n } }
	lru := func(c *sim.Config) { c.OSPolicy, c.MemFrames = "lru", 256 }
	var cfgs []sim.Config
	add := func(cs ...sim.Config) (first int) {
		first = len(cfgs)
		cfgs = append(cfgs, cs...)
		return first
	}
	add(at(sim.VMNoTLB, 32<<10, 16, 4<<20, 16))
	add(group(sim.VMUltrix, []int{8 << 10, 1 << 10}, 16, []int{4 << 20, 1 << 20}, 16)...)
	failed := add(group(sim.VMIntel, []int{2 << 10}, 32, []int{1 << 20, 2 << 20}, 64)...)
	exhausted := add(at(sim.VMUltrix, 64<<10, 16, 4<<20, 16, budget))
	add(at(sim.VMUltrix, 8<<10, 16, 2<<20, 16, cores(2)))
	panicked := add(at(sim.VMNoTLB, 16<<10, 32, 2<<20, 32))
	add(at(sim.VMNoTLB, 1<<10, 64, 256<<10, 128))
	add(divergedGroup()...)
	add(group(sim.VMMach, []int{128 << 10, 4 << 10}, 16, []int{8 << 20, 512 << 10}, 16)...)
	add(at(sim.VMIntel, 4<<10, 32, 1<<20, 32, cores(4), lru))
	add(at(sim.VMPARISC, 32<<10, 32, 8<<20, 32, fourWay))
	add(group(sim.VMPARISC, []int{64 << 10, 1 << 10}, 32, []int{256 << 10, 4 << 20}, 64, fourWay)...)
	add(group(sim.VMUltrix, []int{2 << 10, 16 << 10}, 16, []int{1 << 20, 4 << 20}, 16, unified)...)
	add(at(sim.VMNoTLB, 2<<10, 16, 512<<10, 16, unified))
	add(at(sim.VMBase, 64<<10, 64, 4<<20, 64))

	p, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range []*trace.Trace{faultTrace(t, 8_000), workload.Generate(p, 7, 8_000)} {
		pts, err := RunWithOptions(context.Background(), tr, cfgs, Options{
			Workers:   1,
			PointHook: chain(faults.FailFirst(failed, 99, nil), faults.PanicOn(panicked)),
		})
		if err != nil {
			t.Fatal(err)
		}
		if !errors.Is(pts[failed].Err, faults.ErrInjected) {
			t.Fatalf("%s: failed leader: err %v, want ErrInjected", tr.Name, pts[failed].Err)
		}
		if err := pts[exhausted].Err; simerr.Category(err) != "mem" {
			t.Fatalf("%s: first-touch under %d frames: err %v, want category mem", tr.Name, cfgs[exhausted].MemFrames, err)
		}
		if !errors.Is(pts[panicked].Err, simerr.ErrInternalPanic) {
			t.Fatalf("%s: panicking point: err %v, want ErrInternalPanic", tr.Name, pts[panicked].Err)
		}
		for i, cfg := range cfgs {
			if i == failed || i == exhausted || i == panicked {
				continue
			}
			want, err := fresh(cfg, tr)
			if err != nil {
				t.Fatalf("%s: %v", cfg.Label(), err)
			}
			if pts[i].Err != nil || !reflect.DeepEqual(pts[i].Result, want) {
				t.Errorf("%s: point %d (%s) differs from a fresh engine (err %v)", tr.Name, i, cfg.Label(), pts[i].Err)
			}
		}
	}
}

// TestPointKeyHashesMachineSpecContent: an explicit machine spec enters
// the key by content, not by address, and a configuration without one
// keeps the key earlier journals were written under.
func TestPointKeyHashesMachineSpecContent(t *testing.T) {
	tr := faultTrace(t, 1_000)
	data, err := os.ReadFile("../../machines/ultrix.json")
	if err != nil {
		t.Fatal(err)
	}
	parse := func() *machine.Spec {
		s, err := machine.Parse(data)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := parse(), parse()
	if PointKey(tr, sim.ConfigForMachine(a)) != PointKey(tr, sim.ConfigForMachine(b)) {
		t.Error("two parses of one spec give different keys")
	}
	b.Costs.UserHandlerInstrs++
	if PointKey(tr, sim.ConfigForMachine(a)) == PointKey(tr, sim.ConfigForMachine(b)) {
		t.Error("specs differing in one cost give equal keys")
	}

	cfg := sim.Default(sim.VMUltrix)
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s|%d|%#v", tr.Name, tr.Len(), cfg)))
	if got, want := PointKey(tr, cfg), hex.EncodeToString(sum[:16]); got != want {
		t.Errorf("registry-machine key %s, want the unchanged %s", got, want)
	}
}
