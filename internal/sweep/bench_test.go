package sweep

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// BenchmarkSweepL1Sizes times a paper-style 8-point L1 sweep — the unit
// of work behind every figure — including worker-pool overhead.
func BenchmarkSweepL1Sizes(b *testing.B) {
	p, err := workload.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	tr := workload.Generate(p, 42, 50_000)
	cfgs := Space{
		Base:    sim.Default(sim.VMUltrix),
		L1Sizes: PaperL1Sizes(),
	}.Configs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pt := range Run(tr, cfgs, 0) {
			if pt.Err != nil {
				b.Fatal(pt.Err)
			}
		}
	}
}

// BenchmarkConfigsExpansion times cross-product enumeration alone (it
// must stay negligible next to the simulations it feeds).
func BenchmarkConfigsExpansion(b *testing.B) {
	s := Space{
		Base:    sim.Default(sim.VMUltrix),
		VMs:     sim.PaperVMs(),
		L1Sizes: PaperL1Sizes(),
		L2Sizes: PaperL2Sizes(),
		L1Lines: PaperLineSizes(),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := s.Configs(); len(got) == 0 {
			b.Fatal("empty expansion")
		}
	}
}

// fig67Configs is the figure 6–7 cache space (3 L2 sizes × 10 line-size
// pairs × 8 L1 sizes) for each of vms.
func fig67Configs(vms ...string) []sim.Config {
	var cfgs []sim.Config
	for _, vm := range vms {
		for _, l2 := range PaperL2Sizes() {
			for _, l1Line := range PaperLineSizes() {
				for _, l2Line := range PaperLineSizes() {
					if l2Line < l1Line {
						continue
					}
					cfg := sim.Default(vm)
					cfg.L2SizeBytes, cfg.L1LineBytes, cfg.L2LineBytes = l2, l1Line, l2Line
					cfgs = append(cfgs, Space{Base: cfg, L1Sizes: PaperL1Sizes()}.Configs()...)
				}
			}
		}
	}
	return cfgs
}

// benchSweep runs cfgs over tr once per op on GOMAXPROCS workers, reporting
// points/s and garbage collections per op beside the allocations.
func benchSweep(b *testing.B, tr *trace.Trace, cfgs []sim.Config) {
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		for _, pt := range Run(tr, cfgs, 0) {
			if pt.Err != nil {
				b.Fatal(pt.Err)
			}
		}
	}
	b.ReportMetric(float64(b.N*len(cfgs))/time.Since(start).Seconds(), "points/s")
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.NumGC-before.NumGC)/float64(b.N), "gcs/op")
}

// BenchmarkSweepSharedL2 sweeps the figure 6–7 space for ultrix, whose
// points share L1 stages across every cache size, and notlb, whose points
// share them across L1 sizes through verified replays (a diverged
// follower runs in full and records), at 20k references.
func BenchmarkSweepSharedL2(b *testing.B) {
	benchSweep(b, faultTrace(b, 20_000), fig67Configs(sim.VMUltrix, sim.VMNoTLB))
}

// BenchmarkSweepFig67 sweeps the whole figure 6–7 space — the paper's
// five organizations with a VMCPI, notlb's 240 points among them, 30 of
// which record and the rest replay verified or, diverged, record — over
// a 20k-instruction gcc trace: every kind of point a sweep worker runs
// (recording, replayed, verified, re-recorded) in one worker's arrays,
// kept from one op to the next.
func BenchmarkSweepFig67(b *testing.B) {
	p, err := workload.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	benchSweep(b, workload.Generate(p, 42, 20_000), fig67Configs(sim.PaperVMs()[:5]...))
}
