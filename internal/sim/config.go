// Package sim is the trace-driven simulator core: it drives a reference
// stream through the TLBs, the split two-level virtually-addressed cache
// hierarchy, and a memory-management organization's refill mechanism,
// accumulating the paper's MCPI/VMCPI statistics (§3.1's simulator
// pseudocode).
package sim

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/oskernel"
	"repro/internal/simerr"
	"repro/internal/tlb"
)

// VM organization names accepted by Config.VM. The first six are the
// paper's Table 1 rows; the rest are the §4.2/§5 hybrids.
const (
	VMBase       = "base"
	VMUltrix     = "ultrix"
	VMMach       = "mach"
	VMIntel      = "intel"
	VMPARISC     = "pa-risc"
	VMNoTLB      = "notlb"
	VMHWMIPS     = "hw-mips"
	VMPowerPC    = "powerpc"
	VMSPUR       = "spur"
	VMPFSMHier   = "pfsm-hier"
	VMPFSMHashed = "pfsm-hashed"
	VMClustered  = "clustered"

	// VML2TLB is the bundled two-level-TLB extension (not in the paper):
	// the ultrix software refill behind the paper's L1 TLBs plus a
	// set-associative second-level TLB.
	VML2TLB = "l2tlb"
)

// PaperVMs returns the organizations in the paper's Table 1, in its
// presentation order (BASE last, as the no-VM reference).
func PaperVMs() []string {
	return []string{VMUltrix, VMMach, VMIntel, VMPARISC, VMNoTLB, VMBase}
}

// HybridVMs returns the interpolated organizations of §4.2, the
// programmable-FSM proposal of §5, and the clustered-table contemporary.
func HybridVMs() []string {
	return []string{VMHWMIPS, VMPowerPC, VMSPUR, VMPFSMHier, VMPFSMHashed, VMClustered}
}

// AllVMs returns every registered machine name, sorted: the paper's
// Table 1 rows, the hybrids, the bundled extensions (the two-level-TLB
// "l2tlb"), and anything registered at run time through the machine
// registry.
func AllVMs() []string {
	out := machine.Names()
	sort.Strings(out)
	return out
}

// Config describes one simulation run. Zero-valued fields are filled by
// Default; construct via Default(vm) and override.
type Config struct {
	// VM is the memory-management organization name, resolved through
	// the machine registry (see internal/machine and MACHINES.md).
	VM string

	// Machine, when non-nil, is an explicit machine spec (e.g. loaded
	// from a -machine file) that takes the place of a registry lookup on
	// VM. VM must equal Machine.Name. The spec declares the walker, the
	// page-table organization, the cost model, and the default TLB
	// hierarchy; the TLB scalar fields below remain authoritative for
	// the TLBs actually built (Default and ConfigForMachine seed them
	// from the spec), which is what keeps machine specs sweepable.
	Machine *machine.Spec

	// Cache geometry, per side (the caches are split I/D).
	L1SizeBytes int
	L2SizeBytes int
	L1LineBytes int
	L2LineBytes int
	// Associativities; 1 (direct-mapped) is the paper's configuration.
	L1Assoc int
	L2Assoc int
	// UnifiedCaches merges the instruction and data sides into single
	// L1/L2 caches of the same per-side capacities — the configuration
	// the paper deliberately excluded ("unified caches … would add too
	// many variables"), provided as an ablation.
	UnifiedCaches bool

	// TLBEntries is the per-side TLB size (paper: 128). Ignored by
	// organizations without TLBs.
	TLBEntries int
	// TLB2Entries enables a unified second-level TLB of this many
	// entries behind the split first-level TLBs (0, the paper's
	// configuration, disables it). An extension beyond the paper,
	// modelling the two-level TLB hierarchies that followed it.
	TLB2Entries int
	// TLB2Assoc is the second-level TLB's set-associativity: 0 (the
	// default) keeps it fully associative; n > 0 builds an n-way
	// set-associative TLB indexed by the tagged VPN modulo the set
	// count. TLB2Entries must divide evenly into TLB2Assoc ways.
	TLB2Assoc int
	// TLB2Latency is the cycles charged per second-level TLB hit
	// (0 defaults to 2 when TLB2Entries > 0).
	TLB2Latency int
	// TLBPolicy is the replacement policy (paper: random).
	TLBPolicy tlb.Policy
	// TLBProtectedSlots < 0 selects the organization's own convention
	// (16 for ULTRIX/MACH/HW-MIPS, 0 otherwise); >= 0 overrides it.
	TLBProtectedSlots int

	// InterruptCost is the per-interrupt cycle cost used by Result
	// convenience accessors; the paper's three costs can always be
	// evaluated from the interrupt count afterwards.
	InterruptCost uint64

	// PhysMemBytes sizes simulated physical memory (paper: 8MB).
	PhysMemBytes uint64

	// Seed drives all simulation randomness (TLB random replacement).
	Seed uint64

	// WarmupInstrs is the number of leading trace instructions simulated
	// without charging statistics, so that compulsory misses do not
	// dominate the way they would not in the paper's 200M-instruction
	// traces. It is capped at half the trace length.
	WarmupInstrs int

	// ASIDs selects how the TLBs behave across context switches in
	// multiprogrammed traces: ASIDAuto uses the organization's own
	// convention (tagged entries everywhere except the classical x86,
	// which flushes); ASIDTagged and ASIDFlush override it.
	ASIDs ASIDPolicy

	// SampleEvery, when positive, records a timeline sample every
	// SampleEvery references of the measured (post-warmup) window: at
	// each interval boundary the engine snapshots its counters and the
	// finished Result carries the series as Result.Timeline — MCPI and
	// VMCPI versus trace position, the data behind `vmsim -timeline`.
	// Sampling never changes simulation results (the replay loop folds
	// its tallies additively, so interval boundaries are invisible to
	// every counter); zero, the default, disables it entirely and keeps
	// the replay loop allocation-free.
	SampleEvery int

	// CheckInvariants asserts conservation laws inside the engine after
	// every reference — hits+misses equal references at every cache and
	// TLB level, fixed-cost components charge exactly events × cost,
	// occupancies never exceed capacities, and the CPI decomposition sums
	// to the reported MCPI/VMCPI. A violation aborts the run with a
	// descriptive error pinned to the offending instruction. Opt-in: the
	// checks cost a constant amount of work per reference.
	CheckInvariants bool

	// Cores is the number of simulated cores. 0 and 1 both mean the
	// single-core machine of the paper (today's engine, bit for bit).
	// With Cores > 1 each core gets private TLBs and cache hierarchy
	// (seeded per core; see CoreSeed) while all cores share one physical
	// memory, one page table, and one OS kernel; reference i of the
	// trace executes on core i mod Cores, so the trace order is the
	// global execution order.
	Cores int

	// OSPolicy names the kernel's page-replacement policy (see
	// internal/oskernel): "first-touch" (the default, the paper's free
	// infinite-memory allocator), "round-robin", "random", "lru", or
	// "clock". Every policy except first-touch charges a page fault per
	// non-resident touch; under a bounded MemFrames budget evictions
	// invalidate the victim's translation on every core (shootdowns).
	OSPolicy string

	// MemFrames bounds the number of simultaneously resident virtual
	// pages the kernel will map; 0 (the default) is unbounded. A full
	// budget makes the OSPolicy evict — except first-touch, which never
	// evicts and instead fails the run with a "mem"-category error.
	MemFrames int

	// ShootdownCost is the cycles charged to the faulting core per
	// remote core whose TLBs must be invalidated when a page is evicted
	// — the IPI plus the remote flush. 0 models free shootdowns (the
	// invalidations still happen). Machine specs seed it from their
	// shootdown_cycles cost.
	ShootdownCost uint64
}

// CoreSeed derives core c's configuration seed from the base seed, so
// each core's TLBs draw independent random-replacement streams. Core 0
// keeps the base seed — which is what makes a 1-core multicore run
// bit-identical to the single-core engine. internal/check shares this
// derivation.
func CoreSeed(seed uint64, core int) uint64 {
	return seed + uint64(core)*0x9E3779B97F4A7C15
}

// osPolicyName resolves the configured policy name, defaulting to
// first-touch.
func (c Config) osPolicyName() string {
	if c.OSPolicy == "" {
		return "first-touch"
	}
	return c.OSPolicy
}

// needsKernel reports whether the configuration requires an OS kernel
// model at all. A nil kernel is the paper's machine: first-touch
// allocation with no budget, no faults, no shootdowns — and keeping it
// nil keeps the replay loop's hot path untouched.
func (c Config) needsKernel() bool {
	return c.osPolicyName() != "first-touch" || c.MemFrames > 0
}

// ASIDPolicy selects TLB behaviour across address-space switches.
type ASIDPolicy int

// ASID policies.
const (
	// ASIDAuto follows the organization's convention.
	ASIDAuto ASIDPolicy = iota
	// ASIDTagged tags every TLB entry with its address space.
	ASIDTagged
	// ASIDFlush flushes the TLBs on every context switch.
	ASIDFlush
)

// String returns the policy name.
func (p ASIDPolicy) String() string {
	switch p {
	case ASIDAuto:
		return "auto"
	case ASIDTagged:
		return "tagged"
	case ASIDFlush:
		return "flush"
	default:
		return "invalid"
	}
}

// Default returns the paper's baseline configuration for the given
// organization: 64/128-byte L1/L2 linesizes (the best-performing choice,
// §4.2), 32KB L1 and 2MB L2 per side, 128-entry TLBs with random
// replacement, 8MB physical memory, 50-cycle interrupts. When vm names a
// registered machine whose spec declares a TLB hierarchy, the TLB scalar
// fields are seeded from the spec — which is how `-vm l2tlb` gets its
// set-associative second-level TLB without further flags. For the twelve
// classic organizations the spec values equal the paper baseline, so
// this changes nothing for them.
func Default(vm string) Config {
	cfg := Config{
		VM:                vm,
		L1SizeBytes:       32 * addr.KB,
		L2SizeBytes:       2 * addr.MB,
		L1LineBytes:       64,
		L2LineBytes:       128,
		L1Assoc:           1,
		L2Assoc:           1,
		TLBEntries:        128,
		TLBPolicy:         tlb.Random,
		TLBProtectedSlots: -1,
		InterruptCost:     50,
		PhysMemBytes:      addr.DefaultPhysMemBytes,
		Seed:              1,
		WarmupInstrs:      200_000,
	}
	if spec, err := machine.Lookup(vm); err == nil {
		cfg.applyMachineTLB(spec)
	}
	return cfg
}

// ConfigForMachine returns the baseline configuration for an explicit
// machine spec (e.g. one loaded from a -machine file): Default's cache
// and cost baseline, the spec attached as Config.Machine, and the TLB
// scalar fields seeded from the spec's TLB hierarchy.
func ConfigForMachine(spec *machine.Spec) Config {
	cfg := Default(spec.Name)
	cfg.Machine = spec
	cfg.applyMachineTLB(spec)
	return cfg
}

// applyMachineTLB seeds the TLB scalar fields from a machine spec's TLB
// hierarchy. The scalars stay authoritative afterwards — sweeps vary
// them directly — so this runs only at config construction.
func (c *Config) applyMachineTLB(spec *machine.Spec) {
	if l1, ok := spec.L1(); ok {
		c.TLBEntries = l1.Entries
		if p, err := machine.ParsePolicy(l1.Replacement); err == nil {
			c.TLBPolicy = p
		}
	}
	if l2, ok := spec.L2(); ok {
		c.TLB2Entries = l2.Entries
		c.TLB2Assoc = l2.Assoc
		c.TLB2Latency = l2.HitLatency
	} else {
		c.TLB2Entries = 0
		c.TLB2Assoc = 0
		c.TLB2Latency = 0
	}
	c.ShootdownCost = uint64(spec.Costs.ShootdownCycles)
}

// resolveProtectedSlots returns the protected-slot count a configuration
// actually uses for the given organization: the explicit override if one
// is set, else the organization's own convention — in either case capped
// at half the TLB so that scaled-down TLBs (the tlbsize sweep goes to 16
// entries) keep a proportional partition rather than becoming all-
// protected, which no real part would do.
func resolveProtectedSlots(r mmu.Refill, c Config) int {
	prot := c.TLBProtectedSlots
	if prot < 0 {
		prot = r.ProtectedSlots()
	}
	if max := c.TLBEntries / 2; prot > max {
		prot = max
	}
	return prot
}

// Validate reports whether the configuration is usable. A failure wraps
// simerr.ErrConfigInvalid — except physical-memory exhaustion (a
// page-table region that does not fit PhysMemBytes), which keeps its
// own "mem" class — so sweep drivers can classify either as a
// deterministic (never-retried) point error.
func (c Config) Validate() error {
	return classifyInvalid(c.validate())
}

// classifyInvalid wraps a validation failure in its simerr class.
func classifyInvalid(err error) error {
	if err == nil || errors.Is(err, simerr.ErrConfigInvalid) || errors.Is(err, simerr.ErrMemExhausted) {
		return err
	}
	return fmt.Errorf("%w: %w", simerr.ErrConfigInvalid, err)
}

// validate holds the actual checks, unwrapped.
func (c Config) validate() error {
	refill, err := buildRefill(c, mem.New(c.PhysMemBytes))
	if err != nil {
		return err
	}
	if err := c.validateCaches(); err != nil {
		return err
	}
	if c.TLBEntries > machine.MaxTLBEntries || c.TLB2Entries > machine.MaxTLBEntries {
		return fmt.Errorf("sim: TLB entries (%d, second level %d) exceed %d",
			c.TLBEntries, c.TLB2Entries, machine.MaxTLBEntries)
	}
	if refill != nil && refill.UsesTLB() {
		tc := tlb.Config{
			Entries:        c.TLBEntries,
			ProtectedSlots: resolveProtectedSlots(refill, c),
			Policy:         c.TLBPolicy,
		}
		if err := tc.Validate(); err != nil {
			return fmt.Errorf("sim: TLB: %w", err)
		}
	}
	if c.PhysMemBytes == 0 {
		return fmt.Errorf("sim: physical memory size must be non-zero")
	}
	if c.TLB2Entries < 0 || c.TLB2Latency < 0 || c.TLB2Assoc < 0 {
		return fmt.Errorf("sim: second-level TLB parameters must be non-negative")
	}
	if c.TLB2Entries > 0 && c.TLB2Assoc > 0 && c.TLB2Entries%c.TLB2Assoc != 0 {
		return fmt.Errorf("sim: second-level TLB entries %d not divisible by associativity %d",
			c.TLB2Entries, c.TLB2Assoc)
	}
	if c.SampleEvery < 0 {
		return fmt.Errorf("sim: SampleEvery must be non-negative, got %d", c.SampleEvery)
	}
	if c.Cores < 0 || c.Cores > MaxCores {
		return fmt.Errorf("sim: Cores must be in [0, %d], got %d", MaxCores, c.Cores)
	}
	if c.MemFrames < 0 {
		return fmt.Errorf("sim: MemFrames must be non-negative, got %d", c.MemFrames)
	}
	if _, err := oskernel.New(c.osPolicyName(), c.MemFrames, c.Seed); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	return nil
}

// validateCaches holds validate's checks of the cache geometry, L1 then
// L2: the only fields in which configurations sharing an L1 stage differ
// (see ShareKey).
func (c Config) validateCaches() error {
	if err := validateCache(c.geometry(atL1)); err != nil {
		return fmt.Errorf("sim: L1: %w", err)
	}
	if err := validateCache(c.geometry(atL2)); err != nil {
		return fmt.Errorf("sim: L2: %w", err)
	}
	if c.L2SizeBytes < c.L1SizeBytes {
		return fmt.Errorf("sim: L2 (%d) smaller than L1 (%d)", c.L2SizeBytes, c.L1SizeBytes)
	}
	return nil
}

// geometry returns the configured geometry of cache level lvl (atL1 or
// atL2).
func (c Config) geometry(lvl int) cache.Config {
	if lvl == atL2 {
		return cache.Config{SizeBytes: c.L2SizeBytes, LineBytes: c.L2LineBytes, Assoc: c.L2Assoc}
	}
	return cache.Config{SizeBytes: c.L1SizeBytes, LineBytes: c.L1LineBytes, Assoc: c.L1Assoc}
}

// validateCache checks one cache's geometry, size cap included.
func validateCache(g cache.Config) error {
	if err := g.Validate(); err != nil {
		return err
	}
	if g.SizeBytes > MaxCacheBytes {
		return fmt.Errorf("cache: size %d exceeds %d", g.SizeBytes, MaxCacheBytes)
	}
	return nil
}

// MaxCores bounds Config.Cores — generous for a model whose cores step
// round-robin, tight enough to catch a garbage value before it
// allocates that many cache hierarchies.
const MaxCores = 256

// MaxCacheBytes bounds each cache's size per side. The largest cache any
// experiment, example or test builds is the 4 MB L2 of figures 6–9; four
// times that leaves room for larger sweeps while stopping a garbage
// value (a job's config arrives over the wire) before a worker sizes a
// line array from it.
const MaxCacheBytes = 16 << 20

// Label returns a compact identifier for tables and CSV rows. The
// multicore knobs are appended only when set, so single-core
// first-touch labels read exactly as they always have.
func (c Config) Label() string {
	s := fmt.Sprintf("%s/L1=%dKB.%dB/L2=%dKB.%dB/tlb=%d",
		c.VM, c.L1SizeBytes/addr.KB, c.L1LineBytes,
		c.L2SizeBytes/addr.KB, c.L2LineBytes, c.TLBEntries)
	if c.Cores > 1 || c.MemFrames > 0 || c.osPolicyName() != "first-touch" {
		cores := c.Cores
		if cores == 0 {
			cores = 1
		}
		s += fmt.Sprintf("/cores=%d.%s", cores, c.osPolicyName())
		if c.MemFrames > 0 {
			s += fmt.Sprintf(".%df", c.MemFrames)
		}
	}
	return s
}

// resolveMachine returns the machine spec a configuration declares: the
// explicit Config.Machine if set (its name must agree with Config.VM),
// otherwise the registry entry for Config.VM. An unknown name's error
// enumerates the registered machines.
func (c Config) resolveMachine() (*machine.Spec, error) {
	if c.Machine != nil {
		if c.VM != "" && c.VM != c.Machine.Name {
			return nil, fmt.Errorf("sim: config names VM %q but carries machine spec %q", c.VM, c.Machine.Name)
		}
		if err := c.Machine.Validate(); err != nil {
			return nil, err
		}
		return c.Machine, nil
	}
	spec, err := machine.Lookup(c.VM)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	return spec, nil
}

// buildRefill constructs the configured machine's walker over phys by
// resolving its spec (explicit or registry) and handing it to mmu.Build.
// A machine with no VM system (BASE) returns (nil, nil). Walker
// constructors reserve their page-table regions with MustReserve; a
// region that does not fit the configured physical memory panics with a
// typed exhaustion error, recovered here into a deterministic
// "mem"-class failure instead of a retried panic.
func buildRefill(c Config, phys *mem.Phys) (refill mmu.Refill, err error) {
	spec, serr := c.resolveMachine()
	if serr != nil {
		return nil, serr
	}
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if perr, ok := r.(error); ok && errors.Is(perr, simerr.ErrMemExhausted) {
			refill, err = nil, fmt.Errorf("sim: building %s walker: %w", spec.Name, perr)
			return
		}
		panic(r)
	}()
	return mmu.Build(spec, phys)
}
