package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/workload"
)

// paperInstrs is the length of each paper trace. The canary digests were
// taken from RunExperiment("fig6"/"fig7") at this length and the default
// seed.
const paperInstrs = 100_000

// paperBenches are the benchmarks of figures 6 and 7, in figure order.
var paperBenches = []string{"gcc", "vortex"}

// paperSampleEvery picks the points a run recomputes serially after the
// timed window: every paperSampleEvery-th point of each trace.
const paperSampleEvery = 100

// paperConfigs is the configuration space of figures 6 and 7, in the
// experiments package's order: 5 VMs (the paper's, without BASE, which
// has no VMCPI) x 3 L2 sizes x 10 line-size pairs x 8 L1 sizes.
func paperConfigs(seed uint64) []sim.Config {
	var cfgs []sim.Config
	for _, vm := range sim.PaperVMs()[:5] {
		for _, l2 := range sweep.PaperL2Sizes() {
			for _, l1Line := range sweep.PaperLineSizes() {
				for _, l2Line := range sweep.PaperLineSizes() {
					if l2Line < l1Line {
						continue
					}
					for _, l1 := range sweep.PaperL1Sizes() {
						c := sim.Default(vm)
						c.L1SizeBytes, c.L2SizeBytes = l1, l2
						c.L1LineBytes, c.L2LineBytes = l1Line, l2Line
						c.Seed = seed
						cfgs = append(cfgs, c)
					}
				}
			}
		}
	}
	return cfgs
}

// paperBench is the paper workload: the figure 6-7 space swept over gcc
// and vortex.
type paperBench struct{ *sweepSet }

func setupPaper(ctx context.Context, o *options, t *tracer) (*paperBench, error) {
	sp := t.begin(0, "setup.paper", "")
	defer t.end(sp)
	s, err := newSweepSet(o, "paper")
	if err != nil {
		return nil, err
	}
	cfgs := paperConfigs(o.seed)
	for _, bench := range paperBenches {
		p, err := workload.ByName(bench)
		if err == nil {
			err = s.add(t, sp, bench, func() (*trace.Trace, error) { return workload.Generate(p, o.seed, paperInstrs), nil }, cfgs)
		}
		if err != nil {
			s.close()
			return nil, err
		}
	}
	if err := s.warm(ctx, t, sp); err != nil {
		s.close()
		return nil, err
	}
	return &paperBench{s}, nil
}

func (b *paperBench) check(context.Context) tally {
	var t tally
	for i, pts := range b.first {
		name := b.traces[i].Name
		if b.o.seed == defaultSeed {
			got := paperDigest(pts)
			t.ok(got == paperCanary[name], "paper %s: (vmcpi, mcpi, interrupts) digest %s, recorded %s", name, got, paperCanary[name])
		}
		for j := 0; j < len(pts); j += paperSampleEvery {
			want, err := sim.Simulate(pts[j].Config, b.traces[i])
			t.ok(err == nil && sameResult(pts[j].Result, want), "paper %s point %d: parallel sweep differs from serial Simulate (err %v)", name, j, err)
		}
	}
	return t
}

// paperDigest hashes each point's (vmcpi, mcpi, interrupts) exactly as
// the experiments package prints them in the figure 6-7 CSV.
func paperDigest(pts []sweep.Point) string {
	h := sha256.New()
	for _, p := range pts {
		if p.Result == nil {
			fmt.Fprintf(h, "error\n")
			continue
		}
		fmt.Fprintf(h, "%.5f,%.5f,%d\n", p.Result.VMCPI(), p.Result.MCPI(), p.Result.Counters.Interrupts)
	}
	return hex.EncodeToString(h.Sum(nil))
}
