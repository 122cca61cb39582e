package main

// The layer replays of the paper ledger: each layer driven alone, over
// the stream the engine would hand it.

import (
	"math/bits"
	"time"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tlb"
	"repro/internal/trace"
)

// walkRef is one miss a walker services.
type walkRef struct {
	va    uint64
	asid  uint8
	instr bool
}

// probe is one reference side the engine probes its TLB and caches with.
type probe struct {
	walkRef
	cached bool // false for a data reference flagged uncached
}

// engineProbes lists the reference sides the engine's replay loop
// probes at lineBytes-byte L1 lines: every data reference, and every
// fetch that leaves the previous fetch's line (the engine answers
// same-line fetches from a one-line memo without probing).
func engineProbes(refs []trace.Ref, lineBytes int) []probe {
	shift := uint(bits.TrailingZeros(uint(lineBytes)))
	var out []probe
	last := ^uint64(0)
	for i := range refs {
		r := &refs[i]
		if line := (uint64(r.ASID)<<36 | r.PC) >> shift; line != last {
			last = line
			out = append(out, probe{walkRef{r.PC, r.ASID, true}, true})
		}
		if r.Kind != trace.None {
			out = append(out, probe{walkRef{r.Data, r.ASID, false}, r.Flags&trace.FlagUncached == 0})
		}
	}
	return out
}

// tlbStats is the TLB replay over one trace's probes: split 128-entry
// fully associative TLBs with the MIPS 16-slot protected partition and
// random replacement, ASID-tagged keys, a lookup per probe and an insert
// per miss.
type tlbStats struct {
	lookups          int64
	inserts          []uint64  // side<<63 | key, in order
	misses           []walkRef // the walkers' input
	full, insertOnly time.Duration
}

func newTLB(seed uint64) *tlb.TLB {
	return tlb.New(tlb.Config{Entries: 128, ProtectedSlots: 16, Policy: tlb.Random, Seed: seed})
}

func tlbKey(r walkRef) uint64 { return uint64(r.asid)<<32 | addr.VPN(r.va) }

func tlbReplay(t *tracer, parent int64, probes []probe, seed uint64) tlbStats {
	st := tlbStats{lookups: int64(len(probes))}
	// Record the miss stream once, untimed.
	it, dt := newTLB(seed), newTLB(seed+1)
	for _, p := range probes {
		k, side := tlbKey(p.walkRef), dt
		if p.instr {
			side = it
		}
		if !side.Lookup(k) {
			side.Insert(k)
			if !p.instr {
				k |= 1 << 63
			}
			st.inserts = append(st.inserts, k)
			st.misses = append(st.misses, p.walkRef)
		}
	}

	var full, ins []float64
	for rep := 0; rep < replayReps; rep++ {
		it, dt := newTLB(seed), newTLB(seed+1)
		sp := t.begin(parent, "ledger.tlb.replay", "")
		start := time.Now()
		for _, p := range probes {
			k, side := tlbKey(p.walkRef), dt
			if p.instr {
				side = it
			}
			if !side.Lookup(k) {
				side.Insert(k)
			}
		}
		full = append(full, float64(time.Since(start)))
		t.end(sp)

		it, dt = newTLB(seed), newTLB(seed+1)
		sp = t.begin(parent, "ledger.tlb.insert", "")
		start = time.Now()
		for _, k := range st.inserts {
			if k>>63 == 0 {
				it.Insert(k)
			} else {
				dt.Insert(k &^ (1 << 63))
			}
		}
		ins = append(ins, float64(time.Since(start)))
		t.end(sp)
	}
	st.full, st.insertOnly = time.Duration(median(full)), time.Duration(median(ins))
	return st
}

// cacheStats is the cache replay over one trace's probes: split
// direct-mapped 32KB/64B L1 over 2MB/128B L2 (the paper baseline), with
// ASID-tagged virtual addresses as the engine forms them.
type cacheStats struct {
	accesses, l1Misses, l2Misses int64
	l2Stream                     []walkRef // user-level L2 misses: the NOTLB walker's input
	time                         time.Duration
}

func newHierarchy() *cache.Hierarchy {
	return cache.NewHierarchy(cache.Config{SizeBytes: 32 << 10, LineBytes: 64, Assoc: 1}, cache.Config{SizeBytes: 2 << 20, LineBytes: 128, Assoc: 1})
}

func cacheReplay(t *tracer, parent int64, probes []probe) cacheStats {
	var st cacheStats
	// Record the levels once, untimed.
	ih, dh := newHierarchy(), newHierarchy()
	for _, p := range probes {
		if !p.cached {
			continue
		}
		side := dh
		if p.instr {
			side = ih
		}
		st.accesses++
		switch side.Access(uint64(p.asid)<<36 | p.va) {
		case cache.L2Hit:
			st.l1Misses++
		case cache.Memory:
			st.l1Misses++
			st.l2Misses++
			st.l2Stream = append(st.l2Stream, p.walkRef)
		}
	}

	var ds []float64
	for rep := 0; rep < replayReps; rep++ {
		ih, dh := newHierarchy(), newHierarchy()
		sp := t.begin(parent, "ledger.cache.replay", "")
		start := time.Now()
		for _, p := range probes {
			if !p.cached {
				continue
			}
			if p.instr {
				ih.Access(uint64(p.asid)<<36 | p.va)
			} else {
				dh.Access(uint64(p.asid)<<36 | p.va)
			}
		}
		ds = append(ds, float64(time.Since(start)))
		t.end(sp)
	}
	st.time = time.Duration(median(ds))
	return st
}

// walkerSpec builds one of the paper's walkers over fresh physical
// memory.
type walkerSpec struct {
	name string
	make func(*mem.Phys) mmu.Refill
}

var walkers = []walkerSpec{
	{sim.VMUltrix, func(p *mem.Phys) mmu.Refill { return mmu.NewUltrix(p) }},
	{sim.VMMach, func(p *mem.Phys) mmu.Refill { return mmu.NewMach(p) }},
	{sim.VMIntel, func(p *mem.Phys) mmu.Refill { return mmu.NewIntel(p) }},
	{sim.VMPARISC, func(p *mem.Phys) mmu.Refill { return mmu.NewPARISC(p) }},
	{sim.VMNoTLB, func(p *mem.Phys) mmu.Refill { return mmu.NewNoTLB(p) }},
}

// stubMachine is the counting mmu.Machine the walkers run against: PTE
// loads always hit L1, and the data TLB a walker probes for its own
// page-table pages is a 1024-entry direct-mapped tag array, so the
// replay times the walker's own logic and counts its PTE loads.
type stubMachine struct {
	pteLoads int64
	dtlb     [1024]uint64 // key+1; 0 = empty
}

func (m *stubMachine) ExecHandler(stats.Component, uint64, int, bool) {}
func (m *stubMachine) PTELoad(uint64, stats.Component, stats.Component) cache.Level {
	m.pteLoads++
	return cache.L1Hit
}
func (m *stubMachine) DTLBLookup(asid uint8, vpn uint64) bool {
	k := uint64(asid)<<32 | vpn
	return m.dtlb[k%uint64(len(m.dtlb))] == k+1
}
func (m *stubMachine) DTLBInsert(asid uint8, vpn uint64) {
	k := uint64(asid)<<32 | vpn
	m.dtlb[k%uint64(len(m.dtlb))] = k + 1
}
func (m *stubMachine) DTLBInsertProtected(asid uint8, vpn uint64) { m.DTLBInsert(asid, vpn) }
func (m *stubMachine) ITLBInsert(uint8, uint64)                   {}
func (m *stubMachine) Interrupt()                                 {}

// walkReplay is the median time for a fresh walker to service stream,
// with the PTE loads of one replay.
func walkReplay(t *tracer, parent int64, w walkerSpec, stream []walkRef) (time.Duration, int64) {
	var ds []float64
	var loads int64
	for rep := 0; rep < replayReps; rep++ {
		refill := w.make(mem.New(addr.DefaultPhysMemBytes))
		m := &stubMachine{}
		sp := t.begin(parent, "ledger.mmu.walk", w.name)
		start := time.Now()
		for _, r := range stream {
			refill.HandleMiss(m, r.asid, r.va, r.instr)
		}
		ds = append(ds, float64(time.Since(start)))
		t.end(sp)
		loads = m.pteLoads
	}
	return time.Duration(median(ds)), loads
}
