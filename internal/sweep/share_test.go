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
)

// shareConfigs is a sweep that forms one share group: ultrix at two L1
// sizes, largest first, × three L2 sizes, which runs smallest L1 first
// (points 3–5, then 0–2; point 3 leads); then a notlb point, which never
// shares.
func shareConfigs() []sim.Config {
	base := sim.Default(sim.VMUltrix)
	base.WarmupInstrs = 1_000
	cfgs := Space{
		Base:    base,
		L1Sizes: []int{8 << 10, 4 << 10},
		L2Sizes: []int{256 << 10, 1 << 20, 2 << 20},
	}.Configs()
	return append(cfgs, sim.Default(sim.VMNoTLB))
}

// shareRunOrder is the order in which one worker runs shareConfigs.
var shareRunOrder = []int{3, 4, 5, 0, 1, 2, 6}

// serialResults simulates every configuration on its own.
func serialResults(t *testing.T, tr *trace.Trace, cfgs []sim.Config) []*sim.Result {
	t.Helper()
	out := make([]*sim.Result, len(cfgs))
	for i, cfg := range cfgs {
		res, err := sim.Simulate(cfg, tr)
		if err != nil {
			t.Fatalf("Simulate(%s): %v", cfg.Label(), err)
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
// set-associative and unified ones among them. Every point that succeeds
// must equal a fresh Simulate.
func TestWorkerCarriesNoState(t *testing.T) {
	tr := faultTrace(t, 8_000)
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
	panicked := add(at(sim.VMNoTLB, 16<<10, 32, 2<<20, 32))
	add(at(sim.VMNoTLB, 1<<10, 64, 256<<10, 128))
	add(group(sim.VMMach, []int{128 << 10, 4 << 10}, 16, []int{8 << 20, 512 << 10}, 16)...)
	add(at(sim.VMPARISC, 32<<10, 32, 8<<20, 32, fourWay))
	add(group(sim.VMPARISC, []int{64 << 10, 1 << 10}, 32, []int{256 << 10, 4 << 20}, 64, fourWay)...)
	add(group(sim.VMUltrix, []int{2 << 10, 16 << 10}, 16, []int{1 << 20, 4 << 20}, 16, unified)...)
	add(at(sim.VMNoTLB, 2<<10, 16, 512<<10, 16, unified))
	add(at(sim.VMBase, 64<<10, 64, 4<<20, 64))

	pts, err := RunWithOptions(context.Background(), tr, cfgs, Options{
		Workers:   1,
		PointHook: chain(faults.FailFirst(failed, 99, nil), faults.PanicOn(panicked)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(pts[failed].Err, faults.ErrInjected) {
		t.Fatalf("failed leader: err %v, want ErrInjected", pts[failed].Err)
	}
	if err := pts[exhausted].Err; simerr.Category(err) != "mem" {
		t.Fatalf("first-touch under %d frames: err %v, want category mem", cfgs[exhausted].MemFrames, err)
	}
	if !errors.Is(pts[panicked].Err, simerr.ErrInternalPanic) {
		t.Fatalf("panicking point: err %v, want ErrInternalPanic", pts[panicked].Err)
	}
	for i, cfg := range cfgs {
		if i == failed || i == exhausted || i == panicked {
			continue
		}
		want, err := sim.Simulate(cfg, tr)
		if err != nil {
			t.Fatalf("Simulate(%s): %v", cfg.Label(), err)
		}
		if pts[i].Err != nil || !reflect.DeepEqual(pts[i].Result, want) {
			t.Errorf("point %d (%s) differs from a fresh Simulate (err %v)", i, cfg.Label(), pts[i].Err)
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
