package sweep

import (
	"testing"
	"time"

	"repro/internal/sim"
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

// BenchmarkSweepSharedL2 sweeps the figure 6–7 space (3 L2 sizes × 10
// line-size pairs × 8 L1 sizes) for ultrix, whose points share L1
// stages, and notlb, whose points may not, at 20k references.
func BenchmarkSweepSharedL2(b *testing.B) {
	tr := faultTrace(b, 20_000)
	var cfgs []sim.Config
	for _, vm := range []string{sim.VMUltrix, sim.VMNoTLB} {
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
	b.ReportAllocs()
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
}
