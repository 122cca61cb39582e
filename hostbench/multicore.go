package main

import (
	"context"
	"fmt"
	"strconv"

	"repro/internal/oskernel"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The multicore workload: traces from workload.Multicore over four
// benchmarks, one per core count, each swept over every OS policy.
const (
	mcRefs    = 600_000 // references per trace, across all cores
	mcQuantum = 50_000  // scheduling quantum (vmsim's default)
	mcFrames  = 256     // the bounded frame budget
	// mcAmple is a budget above any trace's footprint: the kernel runs on
	// every TLB-hierarchy miss but (almost) never evicts.
	mcAmple = 1 << 16
	// mcSeeds replicates every configuration under this many seeds, so
	// no single point is a large share of a pass.
	mcSeeds = 8
)

var (
	mcBenches = []string{"gcc", "vortex", "ijpeg", "compress"}
	mcCores   = []int{1, 2, 4}
)

// mcPolicyLabels are the swept policies in order; "lru-ample" is lru
// under mcAmple frames. First-touch never evicts, so it runs unbounded
// (under a bounded budget it would fail with memory exhausted).
func mcPolicyLabels() []string { return append(oskernel.Policies(), "lru-ample") }

// mcConfig is one multicore point.
func mcConfig(cores int, label string, seed uint64) sim.Config {
	c := sim.Default(sim.VMUltrix)
	c.Cores, c.Seed = cores, seed
	switch label {
	case "first-touch":
		c.OSPolicy = label
	case "lru-ample":
		c.OSPolicy, c.MemFrames = "lru", mcAmple
	default:
		c.OSPolicy, c.MemFrames = label, mcFrames
	}
	return c
}

// mcPoint names a point in the canary table.
func mcPoint(cores int, label string, k int) string {
	return fmt.Sprintf("c%d/%s/s%d", cores, label, k)
}

type multicoreBench struct {
	*sweepSet
	names [][]string // mcPoint name per configuration, per trace
}

func setupMulticore(ctx context.Context, o *options, t *tracer) (*multicoreBench, error) {
	sp := t.begin(0, "setup.multicore", "")
	defer t.end(sp)
	s, err := newSweepSet(o, "multicore")
	if err != nil {
		return nil, err
	}
	b := &multicoreBench{sweepSet: s}
	for _, cores := range mcCores {
		var cfgs []sim.Config
		var names []string
		for _, label := range mcPolicyLabels() {
			for k := 0; k < mcSeeds; k++ {
				cfgs = append(cfgs, mcConfig(cores, label, o.seed+uint64(k)))
				names = append(names, mcPoint(cores, label, k))
			}
		}
		err := s.add(t, sp, "mc"+strconv.Itoa(cores), func() (*trace.Trace, error) {
			return workload.Multicore(mcBenches, o.seed, cores, mcRefs, mcQuantum)
		}, cfgs)
		if err != nil {
			s.close()
			return nil, err
		}
		b.names = append(b.names, names)
	}
	if err := s.warm(ctx, t, sp); err != nil {
		s.close()
		return nil, err
	}
	return b, nil
}

// mcCanaryValue renders the canary fields of one result: mcpi, vmcpi,
// page faults and shootdowns, the floats in shortest exact form.
func mcCanaryValue(r *sim.Result) string {
	if r == nil {
		return "error"
	}
	return fmt.Sprintf("%v %v %d %d", r.MCPI(), r.VMCPI(),
		r.Counters.Events[stats.PageFault], r.Counters.Events[stats.Shootdown])
}

func (b *multicoreBench) check(context.Context) tally {
	var t tally
	for i, pts := range b.first {
		for j, p := range pts {
			name := b.names[i][j]
			if b.o.seed == defaultSeed {
				got := mcCanaryValue(p.Result)
				t.ok(got == multicoreCanary[name], "multicore %s: got %q, recorded %q", name, got, multicoreCanary[name])
			}
			// The sample recomputed serially: every policy's first seed.
			if j%mcSeeds == 0 {
				want, err := sim.Simulate(p.Config, b.traces[i])
				t.ok(err == nil && sameResult(p.Result, want), "multicore %s: parallel sweep differs from serial Simulate (err %v)", name, err)
			}
		}
	}
	return t
}
