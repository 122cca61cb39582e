// Package machine is the pluggable machine registry: a memory-management
// organization declared as data — TLB hierarchy, refill mechanism,
// page-table organization, and handler cost model — instead of engine
// code. A Spec is serializable to and from JSON, validated before use,
// and buildable into a walker by internal/mmu and into a full simulated
// machine by internal/sim, so a new hardware scenario is a config file,
// not engine surgery.
//
// The registry bundles the paper's six organizations (Table 1), the
// §4.2/§5 hybrids, and the two-level-TLB extension; Lookup resolves a
// registered name, Load/Parse read a custom spec from JSON, and Register
// adds one programmatically. Canonical produces the fixed-order
// serialization the simulation service's content-addressed result cache
// keys on — two specs serialize identically iff they are equal — and the
// bundled spec files under machines/ at the repository root are exactly
// these canonical bytes, pinned by tests.
//
// MACHINES.md at the repository root documents every field, its valid
// range, and the bundled specs in full.
package machine

import (
	"fmt"

	"repro/internal/tlb"
)

// Refill mechanism kinds (Spec.Refill.Kind).
const (
	// RefillNone is no VM system at all: the BASE reference machine.
	RefillNone = "none"
	// RefillSoftware is a software miss handler: a precise interrupt is
	// taken and handler instructions are fetched through the I-caches.
	RefillSoftware = "software"
	// RefillHardware is a hardware state machine: a fixed cycle cost,
	// no interrupt, no instruction-cache footprint.
	RefillHardware = "hardware"
	// RefillPFSM is the paper's programmable finite-state-machine
	// proposal (§5): a hardware walker whose table format and per-walk
	// cycle cost are software-defined.
	RefillPFSM = "pfsm"
)

// Refill triggers (Spec.Refill.Trigger).
const (
	// TriggerTLBMiss runs the walker on a first-level TLB miss that the
	// (optional) second-level TLB also misses.
	TriggerTLBMiss = "tlb-miss"
	// TriggerCacheMiss runs the walker on a user-level L2 cache miss —
	// the softvm/VMP no-TLB organizations.
	TriggerCacheMiss = "cache-miss"
	// TriggerNone marks the BASE machine (no refill to trigger).
	TriggerNone = ""
)

// Page-table organization kinds (Spec.PageTable.Kind), the paper's
// Figures 1–5.
const (
	// PTNone is no page table (BASE).
	PTNone = "none"
	// PTTwoTierBottomUp is the ULTRIX-style two-tiered hierarchical
	// table walked bottom-up: the leaf PTE is loaded through the D-TLB,
	// with a nested physical root access when the mapping page itself
	// is unmapped.
	PTTwoTierBottomUp = "two-tier-bottomup"
	// PTThreeTierBottomUp is the MACH-style three-tiered table walked
	// bottom-up with user, kernel, and root levels.
	PTThreeTierBottomUp = "three-tier-bottomup"
	// PTTwoTierTopDown is the x86-style two-tiered table walked
	// top-down in physical space (root PTE referenced on every miss).
	PTTwoTierTopDown = "two-tier-topdown"
	// PTHashedInverted is the PA-RISC-style hashed inverted table:
	// the faulting address hashes to a collision chain of 16-byte PTEs
	// in physical, cacheable space.
	PTHashedInverted = "hashed-inverted"
	// PTClustered is the Talluri & Hill-style clustered/subblocked
	// hashed table whose entries each map a cluster of consecutive
	// pages.
	PTClustered = "clustered"
	// PTDisjunctTwoTier is the softvm/VMP disjunct two-tiered table
	// (NOTLB): the UPTE is a virtual address in the disjunct window,
	// the root PTE physical.
	PTDisjunctTwoTier = "disjunct-two-tier"
)

// TLBLevel describes one level of the TLB hierarchy. Level 1 is the
// split I/D pair the reference stream probes every instruction; level 2
// is a unified second-level TLB behind it.
type TLBLevel struct {
	// Entries is the slot count (per side for level 1, total for the
	// unified level 2).
	Entries int `json:"entries"`
	// Assoc is the set-associativity: 0 means fully associative (the
	// paper's configuration). Level 1 must be fully associative (an
	// engine constraint); level 2 may be n-way set-associative, indexed
	// by the (ASID-tagged) VPN modulo the set count.
	Assoc int `json:"assoc"`
	// Replacement is the replacement policy: "random" (the paper's
	// configuration), "lru", or "fifo".
	Replacement string `json:"replacement"`
	// ProtectedSlots reserves slots for root/kernel PTEs (16 for the
	// MIPS-style partitioned TLBs). Level 1 only; must be 0 on level 2.
	ProtectedSlots int `json:"protected_slots"`
	// HitLatency is the cycles charged when this level satisfies a miss
	// in the level above it. Level 2 only (level 1 hits are free, as in
	// the paper); 0 on level 2 selects the default of 2 cycles.
	HitLatency int `json:"hit_latency"`
}

// TLBSpec declares the machine's TLB hierarchy. An empty Levels slice
// means the machine translates without TLBs (NOTLB, SPUR, BASE).
type TLBSpec struct {
	// ASIDTagged: TLB entries carry address-space ids, so nothing is
	// flushed on a context switch. False models the classical x86,
	// which must flush on every switch. Machines without TLBs set it
	// true vacuously (their virtual caches are ASID-tagged).
	ASIDTagged bool `json:"asid_tagged"`
	// Levels lists the hierarchy from level 1 down; at most two levels
	// are supported.
	Levels []TLBLevel `json:"levels"`
}

// RefillSpec declares the miss-handling mechanism.
type RefillSpec struct {
	// Kind is one of RefillNone, RefillSoftware, RefillHardware,
	// RefillPFSM.
	Kind string `json:"kind"`
	// Trigger is TriggerTLBMiss or TriggerCacheMiss ("" for RefillNone).
	Trigger string `json:"trigger"`
}

// PageTableSpec declares the page-table organization the walker walks.
type PageTableSpec struct {
	// Kind is one of the PT… constants.
	Kind string `json:"kind"`
}

// CostSpec is the handler cost model (paper Table 4): instruction counts
// for software handlers, cycle counts for hardware walkers. Fields that
// do not apply to the declared refill/page-table shape must be zero.
type CostSpec struct {
	// UserHandlerInstrs is the first-level software handler length in
	// instructions (fetched through the I-caches).
	UserHandlerInstrs int `json:"user_handler_instrs"`
	// KernelHandlerInstrs is the mid-level nested handler length
	// (three-tier tables only).
	KernelHandlerInstrs int `json:"kernel_handler_instrs"`
	// RootHandlerInstrs is the root-level nested handler length.
	RootHandlerInstrs int `json:"root_handler_instrs"`
	// RootAdminLoads is the number of administrative data loads the
	// root handler performs (MACH's expensive exception path).
	RootAdminLoads int `json:"root_admin_loads"`
	// WalkCycles is the hardware state machine's per-walk cycle cost
	// (hardware and pfsm refills).
	WalkCycles int `json:"walk_cycles"`
	// MappedWalkCycles is the hardware bottom-up walker's cheaper cost
	// when the mapping page is already TLB-resident (HW-MIPS's 4 versus
	// the full 7).
	MappedWalkCycles int `json:"mapped_walk_cycles"`
	// RootWalkCycles is the hardware nested-walk cost for cache-miss-
	// triggered walkers whose leaf PTE load misses the L2 (SPUR's 4).
	RootWalkCycles int `json:"root_walk_cycles"`
	// ShootdownCycles is the IPI-plus-remote-flush cost charged per
	// remote core invalidated when the OS evicts a page (multicore runs
	// with a bounded memory budget only; see Config.ShootdownCost).
	ShootdownCycles int `json:"shootdown_cycles"`
}

// Spec is one machine declared as data. Construct by hand, via Parse /
// Load from JSON, or via Lookup from the registry; call Validate before
// building.
type Spec struct {
	// Name identifies the machine ("ultrix", "l2tlb", …): lowercase
	// letters, digits, and dashes.
	Name string `json:"name"`
	// Description is a one-line human summary, shown by -list-vms.
	Description string `json:"description"`
	// TLB is the TLB hierarchy.
	TLB TLBSpec `json:"tlb"`
	// Refill is the miss-handling mechanism.
	Refill RefillSpec `json:"refill"`
	// PageTable is the table organization the walker walks.
	PageTable PageTableSpec `json:"page_table"`
	// Costs is the handler cost model.
	Costs CostSpec `json:"costs"`
}

// L1 returns the first-level TLB spec and whether one exists.
func (s *Spec) L1() (TLBLevel, bool) {
	if len(s.TLB.Levels) == 0 {
		return TLBLevel{}, false
	}
	return s.TLB.Levels[0], true
}

// L2 returns the second-level TLB spec and whether one exists.
func (s *Spec) L2() (TLBLevel, bool) {
	if len(s.TLB.Levels) < 2 {
		return TLBLevel{}, false
	}
	return s.TLB.Levels[1], true
}

// UsesTLB reports whether the machine translates through TLBs.
func (s *Spec) UsesTLB() bool { return len(s.TLB.Levels) > 0 }

// RefillEquivalent reports whether two specs declare the same miss-
// handling behaviour — refill mechanism, page-table organization, and
// cost model — ignoring name, description, and TLB hierarchy. The
// differential oracle uses it to recognize a custom machine whose
// walker it has a reference model for.
func (s *Spec) RefillEquivalent(o *Spec) bool {
	return s.Refill == o.Refill && s.PageTable == o.PageTable && s.Costs == o.Costs
}

// maxHandlerInstrs bounds every cost field: generous against any real
// handler, tight enough to catch a units mistake (cycles entered as
// nanoseconds, say) at validation instead of mid-sweep.
const maxHandlerInstrs = 100_000

// MaxTLBEntries bounds a TLB level's slot count, here and in
// sim.Config. The largest TLB any bundled machine, experiment, example or
// test builds has 1,024 entries (l2tlb's second level); 64× that leaves
// room for larger sweeps while stopping a garbage value (a job's config
// arrives over the wire) before a worker sizes a TLB's arrays from it.
const MaxTLBEntries = 1 << 16

// ParsePolicy maps a replacement-policy name to its tlb.Policy.
func ParsePolicy(name string) (tlb.Policy, error) {
	switch name {
	case "random":
		return tlb.Random, nil
	case "lru":
		return tlb.LRU, nil
	case "fifo":
		return tlb.FIFO, nil
	default:
		return 0, fmt.Errorf("machine: unknown replacement policy %q (have random, lru, fifo)", name)
	}
}

// Validate reports whether the spec is internally consistent and names a
// buildable machine. The checks mirror what mmu.Build and the engine
// can actually construct, so a spec that validates always builds.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("machine: spec has no name")
	}
	for _, r := range s.Name {
		if (r < 'a' || r > 'z') && (r < '0' || r > '9') && r != '-' {
			return fmt.Errorf("machine: name %q may use only lowercase letters, digits, and dashes", s.Name)
		}
	}
	if err := s.validateTLB(); err != nil {
		return fmt.Errorf("machine: %s: %w", s.Name, err)
	}
	if err := s.validateRefill(); err != nil {
		return fmt.Errorf("machine: %s: %w", s.Name, err)
	}
	return nil
}

// validateTLB checks the TLB hierarchy section.
func (s *Spec) validateTLB() error {
	if len(s.TLB.Levels) > 2 {
		return fmt.Errorf("tlb: %d levels declared; the engine supports at most 2", len(s.TLB.Levels))
	}
	for i, l := range s.TLB.Levels {
		lvl := i + 1
		if l.Entries <= 0 || l.Entries > MaxTLBEntries {
			return fmt.Errorf("tlb level %d: entries %d outside [1, %d]", lvl, l.Entries, MaxTLBEntries)
		}
		if _, err := ParsePolicy(l.Replacement); err != nil {
			return fmt.Errorf("tlb level %d: %w", lvl, err)
		}
		if l.Assoc < 0 {
			return fmt.Errorf("tlb level %d: associativity %d must be non-negative", lvl, l.Assoc)
		}
		switch lvl {
		case 1:
			if l.Assoc != 0 {
				return fmt.Errorf("tlb level 1: must be fully associative (assoc 0), got %d-way", l.Assoc)
			}
			if l.ProtectedSlots < 0 || l.ProtectedSlots >= l.Entries {
				return fmt.Errorf("tlb level 1: protected slots %d must be in [0, entries %d)", l.ProtectedSlots, l.Entries)
			}
			if l.HitLatency != 0 {
				return fmt.Errorf("tlb level 1: hit latency must be 0 (first-level hits are free)")
			}
		case 2:
			if l.Assoc > 0 && l.Entries%l.Assoc != 0 {
				return fmt.Errorf("tlb level 2: entries %d not divisible by associativity %d", l.Entries, l.Assoc)
			}
			if l.ProtectedSlots != 0 {
				return fmt.Errorf("tlb level 2: protected slots only apply to level 1")
			}
			if l.HitLatency < 0 || l.HitLatency > maxHandlerInstrs {
				return fmt.Errorf("tlb level 2: hit latency %d outside [0, %d]", l.HitLatency, maxHandlerInstrs)
			}
		}
	}
	return nil
}

// validateRefill checks the refill/page-table/cost sections and their
// cross-constraints.
func (s *Spec) validateRefill() error {
	c := s.Costs
	for _, f := range []struct {
		name string
		v    int
	}{
		{"user_handler_instrs", c.UserHandlerInstrs},
		{"kernel_handler_instrs", c.KernelHandlerInstrs},
		{"root_handler_instrs", c.RootHandlerInstrs},
		{"root_admin_loads", c.RootAdminLoads},
		{"walk_cycles", c.WalkCycles},
		{"mapped_walk_cycles", c.MappedWalkCycles},
		{"root_walk_cycles", c.RootWalkCycles},
		{"shootdown_cycles", c.ShootdownCycles},
	} {
		if f.v < 0 || f.v > maxHandlerInstrs {
			return fmt.Errorf("costs: %s %d outside [0, %d]", f.name, f.v, maxHandlerInstrs)
		}
	}

	switch s.Refill.Kind {
	case RefillNone:
		if s.Refill.Trigger != TriggerNone {
			return fmt.Errorf("refill: kind %q takes no trigger, got %q", RefillNone, s.Refill.Trigger)
		}
		if s.PageTable.Kind != PTNone {
			return fmt.Errorf("refill: kind %q takes no page table, got %q", RefillNone, s.PageTable.Kind)
		}
		if s.UsesTLB() {
			return fmt.Errorf("refill: kind %q cannot fill a TLB; remove the tlb levels", RefillNone)
		}
		if c != (CostSpec{}) {
			return fmt.Errorf("refill: kind %q takes no costs", RefillNone)
		}
		return nil
	case RefillSoftware, RefillHardware, RefillPFSM:
	default:
		return fmt.Errorf("refill: unknown kind %q (have %s, %s, %s, %s)",
			s.Refill.Kind, RefillNone, RefillSoftware, RefillHardware, RefillPFSM)
	}

	switch s.Refill.Trigger {
	case TriggerTLBMiss:
		if !s.UsesTLB() {
			return fmt.Errorf("refill: trigger %q requires at least one TLB level", TriggerTLBMiss)
		}
	case TriggerCacheMiss:
		if s.UsesTLB() {
			return fmt.Errorf("refill: trigger %q is for TLB-less machines; remove the tlb levels", TriggerCacheMiss)
		}
	default:
		return fmt.Errorf("refill: unknown trigger %q (have %s, %s)", s.Refill.Trigger, TriggerTLBMiss, TriggerCacheMiss)
	}

	sw := s.Refill.Kind == RefillSoftware
	need := func(name string, v int) error {
		if v <= 0 {
			return fmt.Errorf("costs: %s must be positive for a %s %s walker", name, s.Refill.Kind, s.PageTable.Kind)
		}
		return nil
	}
	// Every walker but the disjunct table's fills the TLB it finds the
	// mapping for, which a cache-miss-triggered machine lacks.
	if s.Refill.Trigger == TriggerCacheMiss && s.PageTable.Kind != PTDisjunctTwoTier {
		return fmt.Errorf("page_table: trigger %q walks only %q, whose walker fills no TLB; got %q",
			TriggerCacheMiss, PTDisjunctTwoTier, s.PageTable.Kind)
	}
	// The buildable (page table × refill kind) combinations, mirroring
	// mmu.Build's dispatch table.
	switch s.PageTable.Kind {
	case PTTwoTierBottomUp:
		if s.Refill.Kind == RefillPFSM {
			return fmt.Errorf("page_table: %q is walked by %s or %s refills, not %s",
				s.PageTable.Kind, RefillSoftware, RefillHardware, RefillPFSM)
		}
		if sw {
			if err := need("user_handler_instrs", c.UserHandlerInstrs); err != nil {
				return err
			}
			return need("root_handler_instrs", c.RootHandlerInstrs)
		}
		if err := need("walk_cycles", c.WalkCycles); err != nil {
			return err
		}
		return need("mapped_walk_cycles", c.MappedWalkCycles)
	case PTThreeTierBottomUp:
		if !sw {
			return fmt.Errorf("page_table: %q is walked bottom-up through the D-TLB by nested software handlers only", s.PageTable.Kind)
		}
		if err := need("user_handler_instrs", c.UserHandlerInstrs); err != nil {
			return err
		}
		if err := need("kernel_handler_instrs", c.KernelHandlerInstrs); err != nil {
			return err
		}
		return need("root_handler_instrs", c.RootHandlerInstrs)
	case PTTwoTierTopDown:
		if sw {
			return fmt.Errorf("page_table: %q is walked top-down in physical space by %s or %s refills only",
				s.PageTable.Kind, RefillHardware, RefillPFSM)
		}
		return need("walk_cycles", c.WalkCycles)
	case PTHashedInverted:
		if sw {
			return need("user_handler_instrs", c.UserHandlerInstrs)
		}
		return need("walk_cycles", c.WalkCycles)
	case PTClustered:
		if !sw {
			return fmt.Errorf("page_table: %q has a software handler only", s.PageTable.Kind)
		}
		return need("user_handler_instrs", c.UserHandlerInstrs)
	case PTDisjunctTwoTier:
		if s.Refill.Trigger != TriggerCacheMiss {
			return fmt.Errorf("page_table: %q is the no-TLB organization; its trigger must be %q", s.PageTable.Kind, TriggerCacheMiss)
		}
		if s.Refill.Kind == RefillPFSM {
			return fmt.Errorf("page_table: %q is walked by %s or %s refills, not %s",
				s.PageTable.Kind, RefillSoftware, RefillHardware, RefillPFSM)
		}
		if sw {
			if err := need("user_handler_instrs", c.UserHandlerInstrs); err != nil {
				return err
			}
			return need("root_handler_instrs", c.RootHandlerInstrs)
		}
		if err := need("walk_cycles", c.WalkCycles); err != nil {
			return err
		}
		return need("root_walk_cycles", c.RootWalkCycles)
	case PTNone:
		return fmt.Errorf("page_table: %q requires refill kind %q", PTNone, RefillNone)
	default:
		return fmt.Errorf("page_table: unknown kind %q", s.PageTable.Kind)
	}
}
