package sim

import (
	"fmt"
	"testing"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/mmu"
)

// TestValidatedSpecsRun enumerates machine specs — every page-table kind
// × refill kind × trigger, with no TLB level and with one — and requires
// that whenever machine.Validate accepts one, mmu.Build builds its walker
// and 1,000 references run on it without a panic. Each spec sets every
// cost (none for refill kind "none"), so only its shape decides. A
// walker that fills a TLB on a machine without one, as a cache-miss
// trigger on any table but the disjunct one did, fails here.
func TestValidatedSpecsRun(t *testing.T) {
	tr := tr(t, "gcc", 1_000)
	pts := []string{machine.PTNone, machine.PTTwoTierBottomUp, machine.PTThreeTierBottomUp, machine.PTTwoTierTopDown,
		machine.PTHashedInverted, machine.PTClustered, machine.PTDisjunctTwoTier}
	kinds := []string{machine.RefillNone, machine.RefillSoftware, machine.RefillHardware, machine.RefillPFSM}
	triggers := []string{machine.TriggerNone, machine.TriggerTLBMiss, machine.TriggerCacheMiss}
	levels := [][]machine.TLBLevel{nil, {{Entries: 64, Replacement: "random", ProtectedSlots: 8}}}
	accepted := 0
	for _, pt := range pts {
		for _, kind := range kinds {
			for _, trigger := range triggers {
				for _, lv := range levels {
					spec := &machine.Spec{
						Name:      "enumerated",
						TLB:       machine.TLBSpec{ASIDTagged: true, Levels: lv},
						Refill:    machine.RefillSpec{Kind: kind, Trigger: trigger},
						PageTable: machine.PageTableSpec{Kind: pt},
					}
					if kind != machine.RefillNone {
						spec.Costs = machine.CostSpec{UserHandlerInstrs: 10, KernelHandlerInstrs: 20, RootHandlerInstrs: 20,
							RootAdminLoads: 2, WalkCycles: 7, MappedWalkCycles: 7, RootWalkCycles: 4}
					}
					if spec.Validate() != nil {
						continue
					}
					accepted++
					name := fmt.Sprintf("%s/%s/%s/%d-levels", pt, kind, trigger, len(lv))
					if _, err := mmu.Build(spec, mem.New(Default(spec.Name).PhysMemBytes)); err != nil {
						t.Errorf("%s: Validate accepts the spec but mmu.Build fails: %v", name, err)
						continue
					}
					cfg := ConfigForMachine(spec)
					cfg.WarmupInstrs = 0
					func() {
						defer func() {
							if r := recover(); r != nil {
								t.Errorf("%s: Validate accepts the spec but a run panics: %v", name, r)
							}
						}()
						e, err := NewEngine(cfg)
						if err != nil {
							t.Errorf("%s: NewEngine: %v", name, err)
							return
						}
						if _, err := e.Run(tr); err != nil {
							t.Errorf("%s: Run: %v", name, err)
						}
					}()
				}
			}
		}
	}
	if accepted == 0 {
		t.Fatal("Validate accepted no enumerated spec")
	}
	t.Logf("%d of %d enumerated specs validate", accepted, len(pts)*len(kinds)*len(triggers)*len(levels))
}
