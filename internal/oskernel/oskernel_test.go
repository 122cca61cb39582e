package oskernel

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/simerr"
)

// touch is a test helper asserting Touch never errors.
func touch(t *testing.T, k *Kernel, asid uint8, vpn uint64) (Page, bool, bool) {
	t.Helper()
	ev, have, fault, err := k.Touch(asid, vpn)
	if err != nil {
		t.Fatalf("Touch(%d, %#x): %v", asid, vpn, err)
	}
	return ev, have, fault
}

func TestFirstTouchIsFreeAndNeverEvicts(t *testing.T) {
	k, err := New("first-touch", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for vpn := uint64(0); vpn < 100; vpn++ {
		if _, have, fault := touch(t, k, 0, vpn); have || fault {
			t.Fatalf("vpn %d: evict=%v fault=%v, want neither", vpn, have, fault)
		}
	}
	// Re-touches are free too.
	if _, have, fault := touch(t, k, 0, 5); have || fault {
		t.Fatalf("retouch: evict=%v fault=%v", have, fault)
	}
	if k.Resident() != 100 || k.Faults() != 0 || k.Evictions() != 0 {
		t.Fatalf("resident=%d faults=%d evicts=%d", k.Resident(), k.Faults(), k.Evictions())
	}
}

func TestFirstTouchBoundedBudgetExhausts(t *testing.T) {
	k, err := New("first-touch", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for vpn := uint64(0); vpn < 4; vpn++ {
		touch(t, k, 0, vpn)
	}
	_, _, _, err = k.Touch(0, 4)
	if !errors.Is(err, simerr.ErrMemExhausted) {
		t.Fatalf("5th page over 4 frames: err=%v, want ErrMemExhausted", err)
	}
	if simerr.Category(err) != "mem" {
		t.Fatalf("category %q, want mem", simerr.Category(err))
	}
}

func TestRoundRobinEvictsInAdmissionOrder(t *testing.T) {
	k, err := New("round-robin", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	touch(t, k, 1, 10)
	touch(t, k, 1, 20)
	ev, have, fault := touch(t, k, 1, 30)
	if !have || !fault || ev != (Page{ASID: 1, VPN: 10}) {
		t.Fatalf("3rd admit: evict=%v have=%v fault=%v, want oldest page 10", ev, have, fault)
	}
	// Touching the survivor does not refresh FIFO order.
	touch(t, k, 1, 20)
	ev, have, _ = touch(t, k, 1, 40)
	if !have || ev != (Page{ASID: 1, VPN: 20}) {
		t.Fatalf("4th admit evicted %v, want page 20 (FIFO ignores touches)", ev)
	}
}

func TestLRUEvictsColdestTouch(t *testing.T) {
	k, err := New("lru", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	touch(t, k, 0, 1)
	touch(t, k, 0, 2)
	touch(t, k, 0, 1) // refresh page 1; page 2 is now coldest
	ev, have, _ := touch(t, k, 0, 3)
	if !have || ev != (Page{VPN: 2}) {
		t.Fatalf("evicted %v, want page 2", ev)
	}
}

func TestClockGivesSecondChances(t *testing.T) {
	k, err := New("clock", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	touch(t, k, 0, 1)
	touch(t, k, 0, 2)
	// Both have ref bits set; the hand clears 1 then 2, wraps, and
	// evicts 1 (first cleared).
	ev, have, _ := touch(t, k, 0, 3)
	if !have || ev != (Page{VPN: 1}) {
		t.Fatalf("evicted %v, want page 1", ev)
	}
	// Page 2's bit was cleared by that sweep; 3 is fresh. Next fault
	// evicts 2.
	ev, have, _ = touch(t, k, 0, 4)
	if !have || ev != (Page{VPN: 2}) {
		t.Fatalf("evicted %v, want page 2", ev)
	}
}

func TestRandomVictimMatchesSharedStream(t *testing.T) {
	const seed = 7
	k, err := New("random", 3, seed)
	if err != nil {
		t.Fatal(err)
	}
	touch(t, k, 0, 10)
	touch(t, k, 0, 20)
	touch(t, k, 0, 30)
	// The victim spec: Intn(3) over the ascending resident keys, drawn
	// from the documented salted stream.
	want := []uint64{10, 20, 30}[rng.New(seed^KernelSeedSalt).Intn(3)]
	ev, have, _ := touch(t, k, 0, 40)
	if !have || ev.VPN != want {
		t.Fatalf("evicted vpn %d, want %d", ev.VPN, want)
	}
}

func TestRandomDeterministicAcrossRuns(t *testing.T) {
	run := func() []Page {
		k, err := New("random", 8, 99)
		if err != nil {
			t.Fatal(err)
		}
		var evs []Page
		for i := 0; i < 200; i++ {
			vpn := uint64(i*37%64 + 1)
			ev, have, _, err := k.Touch(uint8(i%3), vpn)
			if err != nil {
				t.Fatal(err)
			}
			if have {
				evs = append(evs, ev)
			}
		}
		return evs
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("eviction counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("eviction %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestASIDDistinguishesPages(t *testing.T) {
	k, err := New("lru", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	touch(t, k, 1, 7)
	if _, _, fault := touch(t, k, 2, 7); !fault {
		t.Fatal("same VPN in another address space should fault")
	}
	if k.Resident() != 2 {
		t.Fatalf("resident=%d, want 2", k.Resident())
	}
}

func TestUnknownPolicyRejected(t *testing.T) {
	if _, err := New("nonesuch", 0, 1); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if _, err := New("lru", -1, 1); err == nil {
		t.Fatal("negative frame budget accepted")
	}
}

func TestPoliciesListsDefaults(t *testing.T) {
	names := Policies()
	if len(names) == 0 || names[0] != "first-touch" {
		t.Fatalf("Policies() = %v, want first-touch first", names)
	}
	for _, n := range names {
		if _, err := New(n, 16, 1); err != nil {
			t.Fatalf("registered policy %q failed to build: %v", n, err)
		}
	}
}

// TestTouchAllocationFree pins a full kernel to zero allocations for
// every evicting policy. Each measured step touches a fresh page, which
// faults, evicts and admits into the victim's slot, then touches it
// again, which only refreshes recency. One measured run covers
// thousands of steps, so a single allocation among them fails the pin
// rather than averaging away.
func TestTouchAllocationFree(t *testing.T) {
	for _, policy := range []string{"round-robin", "random", "lru", "clock"} {
		t.Run(policy, func(t *testing.T) {
			k, err := New(policy, 256, 1)
			if err != nil {
				t.Fatal(err)
			}
			vpn := uint64(0)
			step := func() (evicted bool) {
				_, have, _ := touch(t, k, uint8(vpn%3), vpn*7)
				if _, again, fault := touch(t, k, uint8(vpn%3), vpn*7); again || fault {
					t.Fatalf("re-touch of a resident page evicted=%v faulted=%v", again, fault)
				}
				vpn++
				return have
			}
			// Fill memory, then churn the slot index with a long scan.
			for vpn < 100_000 {
				step()
			}
			var evicts int
			avg := testing.AllocsPerRun(1, func() {
				for i := 0; i < 20_000; i++ {
					if step() {
						evicts++
					}
				}
			})
			if avg != 0 {
				t.Errorf("%s: 20k evicting touches allocate %.0f objects, want 0", policy, avg)
			}
			if evicts != 40_000 {
				t.Fatalf("%s: %d of 40000 fresh-page touches evicted", policy, evicts)
			}
		})
	}
}

// TestNewCostIndependentOfBudget pins construction to a cost that does
// not grow with the frame budget: per-slot state grows only as pages
// become resident. sim.Config.Validate builds a throwaway kernel on
// every call, so an oversized MemFrames must not cost memory there.
func TestNewCostIndependentOfBudget(t *testing.T) {
	cost := func(policy string, frames int) (allocs, bytes uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 100; i++ {
			if _, err := New(policy, frames, 1); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
	}
	for _, policy := range Policies() {
		cost(policy, 1<<40) // warm any lazily initialized runtime state
		sa, sb := cost(policy, 256)
		la, lb := cost(policy, 1<<40)
		if sa != la || sb != lb {
			t.Errorf("%s: 100 News cost %d allocs/%d bytes at 256 frames but %d/%d at 1<<40",
				policy, sa, sb, la, lb)
		}
	}
}

// TestFillCostLinear pins filling F frames to O(F) for every policy:
// filling 16x the frames must take far less than the 256x a quadratic
// fill would. A fill's time is the sum over its chunks of 2,048 frames
// of the least time each chunk took across fifteen alternating rounds of
// small and large fills. A chunk runs for microseconds, a whole large
// fill for milliseconds, so while another process preempts most large
// fills, each chunk still has rounds that ran whole.
func TestFillCostLinear(t *testing.T) {
	const chunk = 2_048
	// fill fills chunk*len(best) frames, lowering best[j] to chunk j's
	// time when this round's was less.
	fill := func(policy string, best []time.Duration) {
		k, err := New(policy, chunk*len(best), 1)
		if err != nil {
			t.Fatal(err)
		}
		for j := range best {
			start := time.Now()
			for i := j * chunk; i < (j+1)*chunk; i++ {
				vpn := uint64(i) * 0x9E3779B1 % (1 << 32) // scrambled order
				if _, _, _, err := k.Touch(uint8(i%3), vpn); err != nil {
					t.Fatal(err)
				}
			}
			best[j] = min(best[j], time.Since(start))
		}
	}
	total := func(best []time.Duration) (d time.Duration) {
		for _, b := range best {
			d += b
		}
		return d
	}
	for _, policy := range Policies() {
		small, large := make([]time.Duration, 1), make([]time.Duration, 16)
		for _, best := range [][]time.Duration{small, large} {
			for j := range best {
				best[j] = 1 << 62
			}
		}
		for rep := 0; rep < 15; rep++ {
			fill(policy, small)
			fill(policy, large)
		}
		if ratio := float64(total(large)) / float64(total(small)); ratio > 64 {
			t.Errorf("%s: filling 16x the frames took %.0fx as long (%v vs %v), want ~16x", policy, ratio, total(large), total(small))
		}
	}
}
