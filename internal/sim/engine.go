// Package sim assembles the simulated machine — split two-level
// virtually-addressed caches, split fully-associative TLBs, an optional
// unified second-level TLB, and one of the paper's page-table walkers —
// and replays reference traces through it, charging cycles in the
// paper's MCPI/VMCPI taxonomy (Tables 2 and 3).
//
// One replay driver (replay.go) runs this Engine and the Multicore
// cluster alike. The Engine replays a span through runPhase, a
// specialized loop whose per-reference work, once caches and TLBs are
// warm, is a handful of compares with zero allocations (the budget is
// pinned by TestHitPathAllocationFree). Its step is the reference
// implementation: one reference at a time with invariant hooks, behind
// Step, CheckInvariants runs and every multicore core; TestRunMatchesStep
// holds the two loops to identical results. See PERFORMANCE.md at the
// repository root for how to measure either.
package sim

import (
	"context"
	"fmt"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/oskernel"
	"repro/internal/simerr"
	"repro/internal/stats"
	"repro/internal/tlb"
	"repro/internal/trace"
)

// Engine executes one simulation configuration over a trace. An Engine
// carries warm state (caches, TLBs, page tables); construct a fresh one
// per measured run.
type Engine struct {
	cfg     Config
	phys    *mem.Phys
	refill  mmu.Refill
	usesTLB bool
	// noTLBRefill marks the software-managed-cache organizations, whose
	// walker runs on user L2 misses instead of TLB misses. Precomputed at
	// assembly so step's default path branches on one bool.
	noTLBRefill bool
	itlb        *tlb.TLB
	dtlb        *tlb.TLB
	// tlb2 is the optional unified second-level TLB — fully associative
	// or set-associative per the configuration; tlb2Cost is the cycles
	// charged when it satisfies a first-level miss.
	tlb2     tlb.Level
	tlb2Cost uint64
	icache   *cache.Hierarchy
	dcache   *cache.Hierarchy
	// iprobe/dprobe are the hand-inlined L1 hit probes for the two cache
	// sides: step resolves the (overwhelmingly common) L1-hit case with
	// an inline compare and only calls into the cache package on misses.
	// With unified caches both alias the same hierarchy.
	iprobe cache.L1Probe
	dprobe cache.L1Probe
	c      stats.Counters
	// live is false during the warmup prefix: the machine state (caches,
	// TLBs, page tables) evolves but nothing is charged. The replay
	// driver switches it (setLive).
	live bool
	// taggedTLB: TLB entries carry ASIDs; otherwise both TLBs are
	// flushed on every context switch (the classical x86 behaviour).
	taggedTLB bool
	curASID   uint8

	// invErr latches the first invariant violation when
	// cfg.CheckInvariants is set.
	invErr error

	// OS-kernel state (see oskernel and multicore.go). kern is nil for
	// the paper's machine (first-touch, unbounded) — the hot path then
	// pays one nil compare per TLB-hierarchy miss and nothing else.
	// peers are the other cores sharing this kernel (multicore runs);
	// kernErr latches the first kernel failure (memory exhaustion),
	// checked at phase boundaries and per step.
	kern          *oskernel.Kernel
	coreID        int
	peers         []*Engine
	shootdownCost uint64
	kernErr       error

	// l2log, when non-nil, records every access that leaves an L1 (see
	// share.go): SimulateRecord sets it for one run. Only the L1-miss
	// paths of runPhase, ExecHandler and PTELoad test it.
	l2log *L2Log

	// driver holds the replay state (replay.go); it sits after the
	// fields the replay loops touch.
	driver
}

// tlbKey composes the fully-associative TLB lookup key. With tagged TLBs
// the ASID disambiguates same-VPN entries from different address spaces;
// untagged TLBs are flushed on switches, so the bare VPN suffices.
func (e *Engine) tlbKey(asid uint8, vpn uint64) uint64 {
	if e.taggedTLB {
		return uint64(asid)<<32 | vpn
	}
	return vpn
}

// userCacheAddr tags a user virtual address with its address space: the
// virtually-indexed caches keep the same set index (the tag bits sit far
// above any index bit) but distinguish different processes' contents —
// ASID-tagged virtual caches, as the paper's §2 describes. Kernel and
// unmapped addresses are global and pass through untagged.
func userCacheAddr(asid uint8, a uint64) uint64 {
	return uint64(asid)<<36 | a
}

// switchTo performs the context-switch work when the running address
// space changes.
func (e *Engine) switchTo(asid uint8) {
	e.curASID = asid
	if e.usesTLB && !e.taggedTLB {
		e.itlb.Flush()
		e.dtlb.Flush()
		if e.tlb2 != nil {
			e.tlb2.Flush()
		}
	}
}

// Statically assert the engine satisfies the walker-facing interface.
var _ mmu.Machine = (*Engine)(nil)

// NewEngine builds an engine for cfg.
func NewEngine(cfg Config) (*Engine, error) { return newEngine(cfg, new(caches)) }

// newEngine is NewEngine building its caches in cs.
func newEngine(cfg Config, cs *caches) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	phys := mem.New(cfg.PhysMemBytes)
	refill, err := buildRefill(cfg, phys)
	if err != nil {
		return nil, err
	}
	e := assemble(cfg, phys, refill, cs)
	if err := e.attachKernel(cfg); err != nil {
		return nil, err
	}
	return e, nil
}

// attachKernel builds and attaches the OS kernel a configuration calls
// for; a first-touch unbounded configuration keeps kern nil, which is
// the paper's machine exactly. The kernel always derives from the base
// configuration seed — in multicore runs core 0 attaches it and every
// core shares it.
func (e *Engine) attachKernel(cfg Config) error {
	if !cfg.needsKernel() {
		return nil
	}
	kern, err := oskernel.New(cfg.osPolicyName(), cfg.MemFrames, cfg.Seed)
	if err != nil {
		return fmt.Errorf("%w: sim: %w", simerr.ErrConfigInvalid, err)
	}
	e.kern = kern
	e.shootdownCost = cfg.ShootdownCost
	return nil
}

// NewEngineWithRefill builds an engine whose miss handling is the given
// walker instead of the one cfg.VM names (cfg.VM is still validated and
// used for labels). It exists for the correctness oracles in
// internal/check — e.g. proving that any organization run with zero-cost
// handlers and an always-hitting TLB is indistinguishable from BASE.
func NewEngineWithRefill(cfg Config, refill mmu.Refill) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := assemble(cfg, mem.New(cfg.PhysMemBytes), refill, new(caches))
	if err := e.attachKernel(cfg); err != nil {
		return nil, err
	}
	return e, nil
}

// caches is one engine's worth of cache arrays: the instruction-side
// and data-side hierarchies (only the first under UnifiedCaches). A
// fresh engine builds in a new one; a sweep worker's engines and replays
// all build in the one its L2Log holds, each resetting it for its own
// geometry (cache.Cache.Reset).
type caches [2]cache.Hierarchy

// assemble wires caches, TLBs, and the walker into an Engine, resetting
// cs for cfg's cache geometry and building the hierarchies in it.
func assemble(cfg Config, phys *mem.Phys, refill mmu.Refill, cs *caches) *Engine {
	l1cfg, l2cfg := cfg.geometry(atL1), cfg.geometry(atL2)
	e := &Engine{
		cfg:    cfg,
		phys:   phys,
		refill: refill,
		icache: &cs[0],
		dcache: &cs[1],
	}
	e.driver = newDriver(e, cfg)
	if cfg.UnifiedCaches {
		// One shared hierarchy: instruction fetches and data references
		// contend for the same lines.
		e.dcache = e.icache
	}
	e.icache.Reset(l1cfg, l2cfg)
	if e.dcache != e.icache {
		e.dcache.Reset(l1cfg, l2cfg)
	}
	e.iprobe = e.icache.L1Probe()
	e.dprobe = e.dcache.L1Probe()
	e.noTLBRefill = refill != nil && !refill.UsesTLB()
	if refill != nil && refill.UsesTLB() {
		e.usesTLB = true
		switch cfg.ASIDs {
		case ASIDTagged:
			e.taggedTLB = true
		case ASIDFlush:
			e.taggedTLB = false
		default:
			e.taggedTLB = refill.ASIDsInTLB()
		}
		tcfg := tlb.Config{
			Entries:        cfg.TLBEntries,
			ProtectedSlots: resolveProtectedSlots(refill, cfg),
			Policy:         cfg.TLBPolicy,
		}
		tcfg.Seed = cfg.Seed ^ 0x1711
		e.itlb = tlb.New(tcfg)
		tcfg.Seed = cfg.Seed ^ 0x2722
		e.dtlb = tlb.New(tcfg)
		if cfg.TLB2Entries > 0 {
			if cfg.TLB2Assoc > 0 {
				e.tlb2 = tlb.NewSetAssoc(tlb.SetAssocConfig{
					Entries: cfg.TLB2Entries,
					Ways:    cfg.TLB2Assoc,
					Policy:  cfg.TLBPolicy,
					Seed:    cfg.Seed ^ 0x3733,
				})
			} else {
				e.tlb2 = tlb.New(tlb.Config{
					Entries: cfg.TLB2Entries,
					Policy:  cfg.TLBPolicy,
					Seed:    cfg.Seed ^ 0x3733,
				})
			}
			e.tlb2Cost = uint64(cfg.TLB2Latency)
			if e.tlb2Cost == 0 {
				e.tlb2Cost = 2
			}
		}
	}
	return e
}

// dtlbHit resolves a data translation through the TLB hierarchy:
// first-level hit, then (if configured) the unified second-level TLB.
// It reports whether the walker must run. step inlines the first-level
// probe itself and goes straight to the miss path; this full form serves
// the walker-facing DTLBLookup.
func (e *Engine) dtlbHit(key uint64) bool {
	if e.dtlb.Lookup(key) {
		return true
	}
	if e.tlb2 != nil && e.tlb2.Lookup(key) {
		if e.live {
			e.c.Charge(stats.TLB2Hit, e.tlb2Cost)
		}
		e.dtlb.Insert(key)
		return true
	}
	return false
}

// itlbMiss services a first-level I-TLB miss: probe the optional unified
// second-level TLB, and run the walker if that misses too — demanding
// the page from the OS kernel first, since a full TLB-hierarchy miss is
// the point where a real OS would discover a non-resident page. The
// first-level probe (with its statistics) already happened in step.
func (e *Engine) itlbMiss(asid uint8, va uint64) {
	if e.tlb2 != nil {
		key := e.tlbKey(asid, addr.VPN(va))
		if e.tlb2.Lookup(key) {
			if e.live {
				e.c.Charge(stats.TLB2Hit, e.tlb2Cost)
			}
			e.itlb.Insert(key)
			return
		}
	}
	if e.kern != nil {
		e.kernelTouch(asid, va)
	}
	e.refill.HandleMiss(e, asid, va, true)
}

// dtlbMiss is itlbMiss for the data side.
func (e *Engine) dtlbMiss(asid uint8, va uint64) {
	if e.tlb2 != nil {
		key := e.tlbKey(asid, addr.VPN(va))
		if e.tlb2.Lookup(key) {
			if e.live {
				e.c.Charge(stats.TLB2Hit, e.tlb2Cost)
			}
			e.dtlb.Insert(key)
			return
		}
	}
	if e.kern != nil {
		e.kernelTouch(asid, va)
	}
	e.refill.HandleMiss(e, asid, va, false)
}

// kernelTouch demands (asid, page-of-va) from the OS kernel: charges a
// page fault when the page was not resident, and — when admitting it
// evicted a victim — performs the victim's TLB shootdown. Kernel
// failures (memory exhaustion) latch into kernErr; the replay loops
// abort at their next check.
func (e *Engine) kernelTouch(asid uint8, va uint64) {
	ev, have, fault, err := e.kern.Touch(asid, addr.VPN(va))
	if err != nil {
		if e.kernErr == nil {
			e.kernErr = fmt.Errorf("sim: core %d: %w", e.coreID, err)
		}
		return
	}
	if fault && e.live {
		e.c.Charge(stats.PageFault, stats.PageFaultPenalty)
	}
	if have {
		e.shootdown(ev)
	}
}

// shootdown propagates a page eviction to the TLBs: the victim's
// translation is invalidated on this core (part of the fault the kernel
// already charged) and on every peer core, each remote invalidation
// costing the configured IPI + flush cycles, charged to the initiating
// core. Untagged TLBs evict by bare VPN — they only ever hold the
// running process's entries, so this can over-invalidate a same-VPN
// entry of another address space, which costs a spurious refill but
// never lets a stale translation survive.
func (e *Engine) shootdown(p oskernel.Page) {
	if e.usesTLB {
		key := e.tlbKey(p.ASID, p.VPN)
		e.itlb.Evict(key)
		e.dtlb.Evict(key)
		if e.tlb2 != nil {
			e.tlb2.Evict(key)
		}
	}
	for _, peer := range e.peers {
		if peer == e {
			continue
		}
		if peer.usesTLB {
			key := peer.tlbKey(p.ASID, p.VPN)
			peer.itlb.Evict(key)
			peer.dtlb.Evict(key)
			if peer.tlb2 != nil {
				peer.tlb2.Evict(key)
			}
		}
		if e.live {
			e.c.Charge(stats.Shootdown, e.shootdownCost)
		}
	}
}

// span replays refs, which lie inside one phase and one sampling
// interval, through runPhase — or, under CheckInvariants, one reference
// at a time through step, so a violation is pinned to its reference. A
// verified recording replays in pieces that end at every checkpoint
// (L2Log.recordSpan).
func (e *Engine) span(refs []trace.Ref, pos int) error {
	if e.cfg.CheckInvariants {
		for i := range refs {
			if err := e.step(&refs[i], pos+i); err != nil {
				return err
			}
		}
		return nil
	}
	if e.l2log != nil && e.l2log.verified {
		e.l2log.recordSpan(e, refs, pos)
	} else {
		e.runPhase(refs)
	}
	return e.kernErr
}

// runPhase replays refs through the machine within one warmup/live phase
// (e.live is constant across a phase, so it is hoisted into a local).
// The body mirrors step's reference semantics exactly, minus the
// per-reference invariant hook. Per-reference tallies whose per-step
// increments would dominate the loop — user instructions and the one
// I-TLB + at-most-one D-TLB lookup every reference performs — accumulate
// in locals and fold into the real counters once per phase; misses and
// all charged events still count at the reference where they happen.
func (e *Engine) runPhase(refs []trace.Ref) {
	live := e.live
	usesTLB := e.usesTLB
	noTLBRefill := e.noTLBRefill
	tagged := e.taggedTLB
	// The same-fetch-line short-circuit below relies on lookups not
	// mutating TLB state, which does not hold under LRU (a hit must
	// refresh recency) — same reasoning as the TLB's own last-hit filter.
	lineSkip := !usesTLB || e.cfg.TLBPolicy != tlb.LRU
	unified := e.dcache == e.icache
	// Stack copies of the L1 probes: nothing the loop calls can alias
	// them, so their fields stay in registers across iterations.
	ip, dp := e.iprobe, e.dprobe
	itlb, dtlb := e.itlb, e.dtlb
	var dataRefs, ihits, dhits uint64
	// lastILine is the previous fetch's cache-line key (line+1; 0 = none)
	// while that line is provably still resident and its page still
	// translated: both can only be disturbed by the handlers and fills the
	// miss paths run, and every miss block clears it. While valid, the
	// whole instruction side reduces to one compare — consecutive fetches
	// share a line for ~8 instructions at a time.
	var lastILine uint64
	for i := range refs {
		r := &refs[i]
		if r.ASID != e.curASID {
			e.switchTo(r.ASID)
			if live {
				e.c.ContextSwitches++
			}
			// Switch hazards (untagged flush, other-process evictions)
			// invalidate the fetch-line memo.
			lastILine = 0
		}
		// asidTag folds the address space into TLB keys and cache
		// addresses; see tlbKey and userCacheAddr, which the loop inlines
		// with the taggedTLB branch hoisted to the tagged local.
		asidTag := uint64(r.ASID) << 32

		// Instruction side.
		iline := userCacheAddr(r.ASID, r.PC) >> ip.Shift()
		if iline+1 == lastILine {
			ihits++
		} else {
			lastILine = 0
			if usesTLB {
				key := addr.VPN(r.PC)
				if tagged {
					key |= asidTag
				}
				if !itlb.LookupUncounted(key) {
					e.itlbMiss(r.ASID, r.PC)
				}
			}
			if ip.HitQuiet(userCacheAddr(r.ASID, r.PC)) {
				ihits++
				// Memoize only the all-hit case: the line is resident and
				// (when a TLB is in play) its VPN is both resident and
				// already the TLB's own last-hit entry, so a skipped
				// lookup is indistinguishable from a performed one.
				if lineSkip {
					lastILine = iline + 1
				}
			} else {
				lvl := e.icache.AccessMissedL1(userCacheAddr(r.ASID, r.PC))
				if e.l2log != nil {
					e.l2log.add(userCacheAddr(r.ASID, r.PC), stats.L1IMiss, stats.L2IMiss, false, lvl, live)
				}
				if lvl != cache.L1Hit && live {
					e.c.Charge(stats.L1IMiss, stats.L1MissPenalty)
					if lvl == cache.Memory {
						e.c.Charge(stats.L2IMiss, stats.L2MissPenalty)
					}
				}
				if lvl == cache.Memory && noTLBRefill {
					if e.kern != nil {
						e.kernelTouch(r.ASID, r.PC)
					}
					e.refill.HandleMiss(e, r.ASID, r.PC, true)
				}
			}
		}

		// Data side.
		if r.Kind == trace.None {
			continue
		}
		dataRefs++
		if usesTLB {
			key := addr.VPN(r.Data)
			if tagged {
				key |= asidTag
			}
			if !dtlb.LookupUncounted(key) {
				e.dtlbMiss(r.ASID, r.Data)
				// The refill handler fetches its own code through the
				// I-cache, which may evict the memoized fetch line.
				lastILine = 0
			}
		}
		if r.Flags&trace.FlagUncached != 0 {
			if live {
				e.c.Charge(stats.L1DMiss, stats.L1MissPenalty)
				e.c.Charge(stats.L2DMiss, stats.L2MissPenalty)
			}
			continue
		}
		if dp.HitQuiet(userCacheAddr(r.ASID, r.Data)) {
			dhits++
		} else {
			lvl := e.dcache.AccessMissedL1(userCacheAddr(r.ASID, r.Data))
			if e.l2log != nil {
				e.l2log.add(userCacheAddr(r.ASID, r.Data), stats.L1DMiss, stats.L2DMiss, true, lvl, live)
			}
			if lvl != cache.L1Hit && live {
				e.c.Charge(stats.L1DMiss, stats.L1MissPenalty)
				if lvl == cache.Memory {
					e.c.Charge(stats.L2DMiss, stats.L2MissPenalty)
				}
			}
			if lvl == cache.Memory && noTLBRefill {
				if e.kern != nil {
					e.kernelTouch(r.ASID, r.Data)
				}
				e.refill.HandleMiss(e, r.ASID, r.Data, false)
			}
			if unified || noTLBRefill {
				// A unified-cache data fill can evict the memoized fetch
				// line directly; a software cache-fill handler can evict
				// it through its code fetches.
				lastILine = 0
			}
		}
	}
	if live {
		e.c.UserInstrs += uint64(len(refs))
	}
	if usesTLB {
		// Warm-phase lookups are folded in too; the warm-boundary
		// ResetStats clears them exactly as it clears per-step tallies.
		itlb.AddLookups(uint64(len(refs)))
		dtlb.AddLookups(dataRefs)
	}
	ip.AddHits(ihits)
	dp.AddHits(dhits)
}

// step replays the one reference at trace index pos: the reference
// implementation runPhase mirrors. It returns a non-nil error when the
// OS kernel failed or, with cfg.CheckInvariants set, when a
// conservation law fails after the reference completes.
func (e *Engine) step(r *trace.Ref, pos int) error {
	noTLBRefill := e.noTLBRefill
	if r.ASID != e.curASID {
		e.switchTo(r.ASID)
		if e.live {
			e.c.ContextSwitches++
		}
	}
	if e.live {
		e.c.UserInstrs++
	}

	// Instruction side. The first-level TLB probe and the L1 hit probe
	// are written so their hit paths inline here; only misses leave the
	// loop body.
	if e.usesTLB && !e.itlb.Lookup(e.tlbKey(r.ASID, addr.VPN(r.PC))) {
		e.itlbMiss(r.ASID, r.PC)
	}
	if !e.iprobe.Hit(userCacheAddr(r.ASID, r.PC)) {
		lvl := e.icache.AccessMissedL1(userCacheAddr(r.ASID, r.PC))
		if lvl != cache.L1Hit && e.live {
			e.c.Charge(stats.L1IMiss, stats.L1MissPenalty)
			if lvl == cache.Memory {
				e.c.Charge(stats.L2IMiss, stats.L2MissPenalty)
			}
		}
		if lvl == cache.Memory && noTLBRefill {
			if e.kern != nil {
				e.kernelTouch(r.ASID, r.PC)
			}
			e.refill.HandleMiss(e, r.ASID, r.PC, true)
		}
	}

	// Data side.
	if r.Kind == trace.None {
		return e.stepErr(pos)
	}
	if e.usesTLB && !e.dtlb.Lookup(e.tlbKey(r.ASID, addr.VPN(r.Data))) {
		e.dtlbMiss(r.ASID, r.Data)
	}
	if r.Flags&trace.FlagUncached != 0 {
		// Software-controlled cacheability (§5): the reference goes
		// straight to memory — full miss latency, but no line is
		// allocated, so it cannot displace cached data. It also
		// cannot trigger the software cache-fill handler: the OS
		// marked it uncacheable precisely to skip the fill.
		if e.live {
			e.c.Charge(stats.L1DMiss, stats.L1MissPenalty)
			e.c.Charge(stats.L2DMiss, stats.L2MissPenalty)
		}
		return e.stepErr(pos)
	}
	if !e.dprobe.Hit(userCacheAddr(r.ASID, r.Data)) {
		lvl := e.dcache.AccessMissedL1(userCacheAddr(r.ASID, r.Data))
		if lvl != cache.L1Hit && e.live {
			e.c.Charge(stats.L1DMiss, stats.L1MissPenalty)
			if lvl == cache.Memory {
				e.c.Charge(stats.L2DMiss, stats.L2MissPenalty)
			}
		}
		if lvl == cache.Memory && noTLBRefill {
			if e.kern != nil {
				e.kernelTouch(r.ASID, r.Data)
			}
			e.refill.HandleMiss(e, r.ASID, r.Data, false)
		}
	}
	return e.stepErr(pos)
}

// stepErr is step's exit check: a latched kernel failure aborts the
// stepped run exactly as it aborts the phase loop, then the optional
// invariant hook runs.
func (e *Engine) stepErr(pos int) error {
	if e.kernErr != nil {
		return e.kernErr
	}
	return e.maybeCheckInvariants(pos)
}

// Digest is a compact summary of the engine's mutable machine state —
// cache and TLB occupancy — used by the differential oracle in
// internal/check to compare engines mid-run. Computing it scans every
// cache line, so checkers sample it at intervals rather than per step.
type Digest struct {
	// Resident line counts per cache level (instruction / data side).
	IL1, IL2, DL1, DL2 int
	// Resident TLB entries, total and in the protected partition.
	ITLB, ITLBProt int
	DTLB, DTLBProt int
	TLB2           int
}

// Digest summarizes the current machine state.
func (e *Engine) Digest() Digest {
	d := Digest{
		IL1: e.icache.L1().Resident(), IL2: e.icache.L2().Resident(),
		DL1: e.dcache.L1().Resident(), DL2: e.dcache.L2().Resident(),
	}
	if e.usesTLB {
		d.ITLB, d.ITLBProt = e.itlb.Resident(), e.itlb.ResidentProtected()
		d.DTLB, d.DTLBProt = e.dtlb.Resident(), e.dtlb.ResidentProtected()
		if e.tlb2 != nil {
			d.TLB2 = e.tlb2.Resident()
		}
	}
	return d
}

// Snapshot returns the statistics accumulated so far, with the live TLB
// lookup/miss counts folded in the way result folds them — so a
// snapshot taken after the final Step equals the finished Result's
// counters.
func (e *Engine) Snapshot() stats.Counters {
	c := e.c
	if e.usesTLB {
		ist, dst := e.itlb.Stats(), e.dtlb.Stats()
		c.ITLBLookups, c.ITLBMisses = ist.Lookups, ist.Misses
		c.DTLBLookups, c.DTLBMisses = dst.Lookups, dst.Misses
	}
	return c
}

// setLive switches the engine between warming and measuring.
func (e *Engine) setLive(live bool) { e.live = live }

// resetTLBStats restarts the first-level TLB statistics.
func (e *Engine) resetTLBStats() {
	if e.usesTLB {
		e.itlb.ResetStats()
		e.dtlb.ResetStats()
	}
}

// result assembles the Result after the last reference.
func (e *Engine) result(workload string) *Result {
	e.c = e.Snapshot()
	return &Result{
		Config:         e.cfg,
		Workload:       workload,
		Counters:       e.c,
		AvgChainLength: chainStats(e.refill),
	}
}

// chainStats extracts the average collision-chain length from hashed-
// table organizations; 0 otherwise.
func chainStats(r mmu.Refill) float64 {
	switch w := r.(type) {
	case *mmu.PARISC:
		return w.Table().AverageChainLength()
	case *mmu.PowerPC:
		return w.Table().AverageChainLength()
	case *mmu.Clustered:
		return w.Table().AverageChainLength()
	default:
		return 0
	}
}

// --- mmu.Machine implementation -------------------------------------

// ExecHandler charges the handler's base cost and, for software handlers,
// streams its instruction fetches through the I-caches.
func (e *Engine) ExecHandler(comp stats.Component, pc uint64, n int, fetchesCode bool) {
	if e.live {
		e.c.Charge(comp, uint64(n))
	}
	if !fetchesCode {
		return
	}
	for i := 0; i < n; i++ {
		lvl := e.icache.Access(pc + uint64(i)*4)
		if lvl == cache.L1Hit {
			continue
		}
		if e.l2log != nil {
			e.l2log.add(pc+uint64(i)*4, stats.HandlerL2, stats.HandlerMem, false, lvl, e.live)
		}
		if e.live {
			e.c.Charge(stats.HandlerL2, stats.L1MissPenalty)
			if lvl == cache.Memory {
				e.c.Charge(stats.HandlerMem, stats.L2MissPenalty)
			}
		}
	}
}

// PTELoad runs a page-table-entry reference through the D-caches.
func (e *Engine) PTELoad(a uint64, l2c, memc stats.Component) cache.Level {
	lvl := e.dcache.Access(a)
	if lvl == cache.L1Hit {
		return lvl
	}
	if e.l2log != nil {
		e.l2log.add(a, l2c, memc, true, lvl, e.live)
	}
	if e.live {
		e.c.Charge(l2c, stats.L1MissPenalty)
		if lvl == cache.Memory {
			e.c.Charge(memc, stats.L2MissPenalty)
		}
	}
	return lvl
}

// DTLBLookup probes the D-TLB on behalf of a handler's PTE reference.
func (e *Engine) DTLBLookup(asid uint8, vpn uint64) bool {
	return e.dtlbHit(e.tlbKey(asid, vpn))
}

// DTLBInsert installs a user translation in the D-TLB.
func (e *Engine) DTLBInsert(asid uint8, vpn uint64) {
	key := e.tlbKey(asid, vpn)
	e.dtlb.Insert(key)
	if e.tlb2 != nil {
		e.tlb2.Insert(key)
	}
}

// DTLBInsertProtected installs a root/kernel translation in the D-TLB's
// protected partition.
func (e *Engine) DTLBInsertProtected(asid uint8, vpn uint64) {
	e.dtlb.InsertProtected(e.tlbKey(asid, vpn))
}

// ITLBInsert installs a user translation in the I-TLB.
func (e *Engine) ITLBInsert(asid uint8, vpn uint64) {
	key := e.tlbKey(asid, vpn)
	e.itlb.Insert(key)
	if e.tlb2 != nil {
		e.tlb2.Insert(key)
	}
}

// Interrupt counts a precise interrupt taken by the VM system.
func (e *Engine) Interrupt() {
	if e.live {
		e.c.Interrupts++
	}
}

// Simulate is the one-call convenience: build the machine cfg calls for
// — the multicore cluster when Cores > 1, the single-core engine
// otherwise — and run it over tr. It builds in the arrays of an idle log
// (TakeLog, SimulateIn) and puts the log back, so repeated calls grow no
// new cache arrays once one log has the room; its Result equals a fresh
// engine's (NewEngine or NewMulticore, then Run).
func Simulate(cfg Config, tr *trace.Trace) (*Result, error) {
	return SimulateContext(context.Background(), cfg, tr)
}

// SimulateContext is Simulate with cooperative cancellation: the run
// aborts with an error wrapping simerr.ErrCancelled shortly after ctx
// is done.
func SimulateContext(ctx context.Context, cfg Config, tr *trace.Trace) (*Result, error) {
	log := TakeLog()
	defer PutLog(log)
	return SimulateIn(ctx, cfg, tr, log)
}
