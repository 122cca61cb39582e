package sweep

import (
	"context"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/sim"
)

// TestWorkerAllocationFree pins a warm sweep worker's memory, point by
// point: the hook that starts each point reads the allocation counters,
// so the difference between two consecutive reads is one point's cost.
// Once the worker's arrays, LRU ages and fill lists have the room (after
// full runs at the largest geometry, direct-mapped and 4-way), a
// full-engine point allocates the same bytes at a 512 KB L2 as at a
// 4 MB L2 (16-byte lines: 256 KB against 2 MB of lines per side), and so
// does a 4-core cluster, whose cores build in the worker's arrays too; a
// follower whose streams have the room allocates only its Result. The
// full-engine points are notlb with a 2-way L1, which may not share. The
// collector is off while the sweeps run, so that none of its own
// allocations lands in a point's count.
func TestWorkerAllocationFree(t *testing.T) {
	tr := faultTrace(t, 8_000)
	at := func(vm string, l1, l2, assoc int) sim.Config {
		c := sim.Default(vm)
		c.L1SizeBytes, c.L1LineBytes, c.L2SizeBytes, c.L2LineBytes, c.L2Assoc = l1, 16, l2, 16, assoc
		if vm == sim.VMNoTLB {
			c.L1Assoc = 2
		}
		return c
	}
	cluster := func(l2 int) sim.Config {
		c := at(sim.VMUltrix, 8<<10, l2, 1)
		c.Cores = 4
		return c
	}
	cfgs := []sim.Config{
		at(sim.VMNoTLB, 32<<10, 4<<20, 1), at(sim.VMNoTLB, 32<<10, 4<<20, 4), // warm
		at(sim.VMNoTLB, 32<<10, 512<<10, 1), at(sim.VMNoTLB, 32<<10, 4<<20, 1), // 2, 3: full
		// One share group, in its run order: 4 records, 5 and 8 keep new
		// L2- and L1-miss streams, and 6, 7, 9 and 10 replay into room.
		at(sim.VMUltrix, 1<<10, 1<<20, 1), at(sim.VMUltrix, 1<<10, 2<<20, 1),
		at(sim.VMUltrix, 1<<10, 4<<20, 1), at(sim.VMUltrix, 1<<10, 4<<20, 4),
		at(sim.VMUltrix, 8<<10, 1<<20, 1), at(sim.VMUltrix, 8<<10, 2<<20, 1),
		at(sim.VMUltrix, 8<<10, 4<<20, 1),
		cluster(4 << 20), cluster(512 << 10), cluster(4 << 20), // 11 warm; 12, 13
	}
	// A notlb share group in its run order: 14 records, 15 diverges and
	// resumes, 16 and 17 replay from 15's recording.
	group := divergedGroup()
	slices.Reverse(group)
	cfgs = append(cfgs, group...)
	cfgs = append(cfgs, at(sim.VMBase, 32<<10, 1<<20, 1)) // ends point 17's count
	// The least of three sweeps, point by point: a channel operation of
	// the pool now and then allocates a runtime wait record.
	allocs := make([]uint64, len(cfgs)-1)
	bytes := make([]uint64, len(cfgs)-1)
	marks := make([]runtime.MemStats, len(cfgs))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for rep := 0; rep < 3; rep++ {
		pts, err := RunWithOptions(context.Background(), tr, cfgs, Options{
			Workers: 1,
			PointHook: func(_ context.Context, i, _ int) error {
				runtime.ReadMemStats(&marks[i])
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range pts {
			if p.Err != nil {
				t.Fatalf("point %d (%s): %v", i, p.Config.Label(), p.Err)
			}
		}
		for i := range allocs {
			n, b := marks[i+1].Mallocs-marks[i].Mallocs, marks[i+1].TotalAlloc-marks[i].TotalAlloc
			if rep == 0 || n < allocs[i] {
				allocs[i] = n
			}
			if rep == 0 || b < bytes[i] {
				bytes[i] = b
			}
		}
	}
	cost := func(i int) (uint64, uint64) { return allocs[i], bytes[i] }
	for _, pair := range []struct {
		what         string
		small, large int
	}{{"full-engine point", 2, 3}, {"4-core cluster", 12, 13}} {
		sa, sb := cost(pair.small)
		la, lb := cost(pair.large)
		if sa != la || sb != lb {
			t.Errorf("warm %s: %d allocs/%d bytes at a 512 KB L2 but %d/%d at 4 MB", pair.what, sa, sb, la, lb)
		}
	}
	for _, i := range []int{6, 7, 9, 10, 16, 17} {
		if n, b := cost(i); n != 1 {
			t.Errorf("warm follower %d (%s) allocates %d objects (%d bytes), want 1 (its Result)", i, cfgs[i].Label(), n, b)
		}
	}
	ra, rb := cost(14)
	fa, fb := cost(15)
	t.Logf("warm recording: %d allocs/%d bytes; warm resumed follower: %d/%d", ra, rb, fa, fb)
	if fa > ra || fb > rb {
		t.Errorf("warm resumed follower allocates %d objects/%d bytes, more than a warm recording's %d/%d", fa, fb, ra, rb)
	}
}
