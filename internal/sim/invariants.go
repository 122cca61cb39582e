package sim

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/cache"
	"repro/internal/stats"
	"repro/internal/tlb"
)

// This file implements the opt-in invariant mode (Config.CheckInvariants):
// conservation laws the simulated machine must satisfy after every single
// reference, asserted inside the engine so that a violation is pinned to
// the exact instruction that introduced it rather than discovered in an
// aggregate at the end of a multi-million-reference run.
//
// The laws checked per reference:
//
//   - hits + misses == references at every level: each cache's misses
//     never exceed its accesses, each L2's accesses equal its L1's misses
//     (every L1 miss proceeds to L2 and nothing else does), and each
//     TLB's misses never exceed its lookups.
//   - fixed-cost components charge exactly events × cost cycles
//     (20-cycle L1 misses, 500-cycle L2 misses, paper Table 2).
//   - occupancy: a TLB never holds more entries than it has slots, and
//     its protected partition never exceeds its protected-slot count.
//   - the CPI decomposition is conserved: MCPI and VMCPI equal the sum
//     of their per-component CPIs, and the total overhead equals
//     MCPI + VMCPI + interrupt cost.
//
// Cross-run laws (BASE equivalence under zero-cost handlers, interrupt
// monotonicity in trace length) need more than one engine and live in
// internal/check.

// maybeCheckInvariants runs the per-reference conservation checks when
// the configuration asks for them. The first violation is latched and
// returned from every subsequent step so a driver that ignores one error
// cannot silently run past it.
func (e *Engine) maybeCheckInvariants(pos int) error {
	if !e.cfg.CheckInvariants {
		return nil
	}
	if e.invErr == nil {
		e.invErr = e.checkInvariants(pos)
	}
	return e.invErr
}

// checkInvariants verifies every per-reference conservation law after
// the reference at trace index pos and describes the first violated one.
func (e *Engine) checkInvariants(pos int) error {
	fail := func(format string, args ...interface{}) error {
		return fmt.Errorf("sim: invariant violated at instruction %d (%s): %s",
			pos+1, e.cfg.Label(), fmt.Sprintf(format, args...))
	}

	// Cache conservation, per hierarchy side.
	type namedHier struct {
		name string
		h    *cache.Hierarchy
	}
	sides := []namedHier{{"icache", e.icache}}
	if e.dcache != e.icache {
		sides = append(sides, namedHier{"dcache", e.dcache})
	}
	for _, s := range sides {
		l1, l2 := s.h.L1().Stats(), s.h.L2().Stats()
		if l1.Misses > l1.Accesses {
			return fail("%s L1 misses %d exceed accesses %d", s.name, l1.Misses, l1.Accesses)
		}
		if l2.Misses > l2.Accesses {
			return fail("%s L2 misses %d exceed accesses %d", s.name, l2.Misses, l2.Accesses)
		}
		if l2.Accesses != l1.Misses {
			return fail("%s L2 accesses %d != L1 misses %d (every L1 miss, and only L1 misses, reach L2)",
				s.name, l2.Accesses, l1.Misses)
		}
	}

	// TLB conservation and occupancy.
	type namedTLB struct {
		name string
		t    *tlb.TLB
	}
	var tlbs []namedTLB
	if e.usesTLB {
		tlbs = append(tlbs, namedTLB{"itlb", e.itlb}, namedTLB{"dtlb", e.dtlb})
		if e.tlb2 != nil {
			// The second-level TLB may be set-associative; check it
			// through the organization-agnostic Level surface.
			st := e.tlb2.Stats()
			if st.Misses > st.Lookups {
				return fail("tlb2 misses %d exceed lookups %d", st.Misses, st.Lookups)
			}
			if got := e.tlb2.Resident(); got > e.tlb2.Entries() {
				return fail("tlb2 holds %d entries in %d slots", got, e.tlb2.Entries())
			}
		}
	}
	for _, s := range tlbs {
		st := s.t.Stats()
		if st.Misses > st.Lookups {
			return fail("%s misses %d exceed lookups %d", s.name, st.Misses, st.Lookups)
		}
		cfg := s.t.Config()
		if got := s.t.Resident(); got > cfg.Entries {
			return fail("%s holds %d entries in %d slots", s.name, got, cfg.Entries)
		}
		if got := s.t.ResidentProtected(); got > cfg.ProtectedSlots {
			return fail("%s protected partition holds %d entries in %d slots",
				s.name, got, cfg.ProtectedSlots)
		}
	}

	// Fixed-cost components: cycles == events × cost.
	for comp, cost := range fixedComponentCosts {
		if e.c.Cycles[comp] != e.c.Events[comp]*cost {
			return fail("%v charged %d cycles for %d events at %d cycles each",
				comp, e.c.Cycles[comp], e.c.Events[comp], cost)
		}
	}

	// CPI decomposition conservation.
	if err := checkDecomposition(&e.c, e.cfg.InterruptCost); err != nil {
		return fail("%v", err)
	}
	return nil
}

// fixedComponentCosts maps every component with a fixed per-event cost to
// that cost (paper Table 2: 20 cycles to L2, 500 to memory; page faults
// at the demand-paging extension's constant). Handler base components and
// shootdowns are excluded — their per-event cost varies by organization
// (handler length, configured IPI cost).
var fixedComponentCosts = map[stats.Component]uint64{
	stats.L1IMiss: stats.L1MissPenalty, stats.L1DMiss: stats.L1MissPenalty,
	stats.L2IMiss: stats.L2MissPenalty, stats.L2DMiss: stats.L2MissPenalty,
	stats.UPTEL2: stats.L1MissPenalty, stats.UPTEMem: stats.L2MissPenalty,
	stats.KPTEL2: stats.L1MissPenalty, stats.KPTEMem: stats.L2MissPenalty,
	stats.RPTEL2: stats.L1MissPenalty, stats.RPTEMem: stats.L2MissPenalty,
	stats.HandlerL2: stats.L1MissPenalty, stats.HandlerMem: stats.L2MissPenalty,
	stats.PageFault: stats.PageFaultPenalty,
}

// checkDecomposition verifies that the headline figures are exactly the
// sums of their components: MCPI and VMCPI over their component CPIs, and
// the total overhead over MCPI + VMCPI + interrupt cost.
func checkDecomposition(c *stats.Counters, interruptCost uint64) error {
	const eps = 1e-9
	var mcpi, vmcpi float64
	for _, comp := range stats.MCPIComponents() {
		mcpi += c.CPI(comp)
	}
	for _, comp := range stats.VMCPIComponents() {
		vmcpi += c.CPI(comp)
	}
	if got := c.MCPI(); math.Abs(got-mcpi) > eps {
		return fmt.Errorf("MCPI %.12f does not equal its component sum %.12f", got, mcpi)
	}
	if got := c.VMCPI(); math.Abs(got-vmcpi) > eps {
		return fmt.Errorf("VMCPI %.12f does not equal its component sum %.12f", got, vmcpi)
	}
	want := mcpi + vmcpi + c.InterruptCPI(interruptCost)
	if got := c.TotalOverheadCPI(interruptCost); math.Abs(got-want) > eps {
		return fmt.Errorf("total overhead %.12f does not equal MCPI+VMCPI+interrupts %.12f", got, want)
	}
	return nil
}

// StateSummary describes the engine's machine state — cache and TLB
// occupancy and statistics — for divergence reports and debugging. It is
// not part of the measured simulation.
func (e *Engine) StateSummary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "engine %s after %d refs (live=%v)\n", e.cfg.Label(), e.pos, e.live)
	side := func(name string, h *cache.Hierarchy) {
		l1, l2 := h.L1(), h.L2()
		fmt.Fprintf(&b, "  %s: L1 %d/%d lines resident (%d acc, %d miss); L2 %d/%d (%d acc, %d miss)\n",
			name,
			l1.Resident(), l1.Config().SizeBytes/l1.Config().LineBytes, l1.Stats().Accesses, l1.Stats().Misses,
			l2.Resident(), l2.Config().SizeBytes/l2.Config().LineBytes, l2.Stats().Accesses, l2.Stats().Misses)
	}
	side("icache", e.icache)
	if e.dcache != e.icache {
		side("dcache", e.dcache)
	}
	if e.usesTLB {
		type namedTLB struct {
			name string
			t    *tlb.TLB
		}
		for _, t := range []namedTLB{{"itlb", e.itlb}, {"dtlb", e.dtlb}} {
			st := t.t.Stats()
			fmt.Fprintf(&b, "  %s: %d/%d resident (%d protected), %d lookups, %d misses\n",
				t.name, t.t.Resident(), t.t.Config().Entries, t.t.ResidentProtected(),
				st.Lookups, st.Misses)
		}
		if e.tlb2 != nil {
			st := e.tlb2.Stats()
			fmt.Fprintf(&b, "  tlb2: %d/%d resident, %d lookups, %d misses\n",
				e.tlb2.Resident(), e.tlb2.Entries(), st.Lookups, st.Misses)
		}
	}
	fmt.Fprintf(&b, "  interrupts=%d ctxswitches=%d userinstrs=%d\n",
		e.c.Interrupts, e.c.ContextSwitches, e.c.UserInstrs)
	return b.String()
}
