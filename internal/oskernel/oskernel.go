// Package oskernel models the operating system's page-frame management
// as a pluggable policy layer above the simulated physical memory.
//
// The paper's machine has an invisible OS: pages are allocated first
// touch from an effectively infinite physical memory, so the only OS
// cost is the TLB-refill handler itself. This package makes the OS a
// simulation subject. A Kernel tracks which (address space, virtual
// page) pairs are resident under a bounded frame budget, charges a page
// fault when a non-resident page is touched, and — when the budget is
// full — asks its replacement policy for a victim. Evicting a victim
// unmaps it everywhere: the engine propagates the eviction to every
// core's TLBs as a shootdown (see internal/sim).
//
// Determinism: the Kernel is driven single-threaded in trace order (in
// multicore runs, in the global round-robin interleaving order), every
// policy is a deterministic function of the touch sequence, and the one
// random policy draws from an internal/rng stream seeded from the
// configuration — the same deliberate seed coupling the TLBs use, so
// the naive reference model in internal/check can replay the identical
// victim sequence.
//
// The OS observes memory at page-fault granularity only: a Touch is a
// TLB-hierarchy miss, not a load. Recency state (LRU order, clock
// reference bits) therefore updates per miss, never per reference —
// a real OS cannot see TLB hits either.
package oskernel

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/rng"
	"repro/internal/simerr"
)

// Page identifies one virtual page in one address space — the unit the
// kernel maps, evicts, and shoots down.
type Page struct {
	ASID uint8
	VPN  uint64
}

// key packs a Page into the key form used throughout (the same
// asid<<32|vpn packing the tagged TLBs use).
func (p Page) key() uint64 { return uint64(p.ASID)<<32 | p.VPN }

func pageOf(key uint64) Page {
	return Page{ASID: uint8(key >> 32), VPN: key & (1<<32 - 1)}
}

// KernelSeedSalt derives the random policy's rng stream from the
// configuration seed, exactly as the engine derives its per-TLB
// streams. internal/check shares this constant on purpose — victim
// choices can only be compared step by step if both implementations
// draw the same stream.
const KernelSeedSalt = 0x4744

// policy enumerates the replacement policies, in registry order.
type policy uint8

const (
	firstTouch policy = iota // never evicts; faults are free
	roundRobin               // FIFO: evict in admission order
	random                   // the Intn(n)-th smallest resident key
	lru                      // the least recently touched page
	clock                    // second chance over the slot ring
)

var policyNames = [...]string{"first-touch", "round-robin", "random", "lru", "clock"}

// Policies lists the registered policy names in presentation order.
// "first-touch" is the default and reproduces the paper's model.
func Policies() []string { return slices.Clone(policyNames[:]) }

// Kernel is the simulated OS memory manager: a resident set under a
// frame budget, and a replacement policy.
//
// All state is indexed by frame slot. Resident pages fill slots
// 0..n-1 in admission order; an eviction happens only when memory is
// full, and the admitted page takes the victim's slot, so a slot keeps
// its index for the rest of the run. Each policy is then a flat
// structure over slots, every touch costs O(1) — O(log n) plus a short
// copy for random — and a full kernel never allocates. Per-slot slices
// grow only as pages become resident, never with the budget.
type Kernel struct {
	pol    policy
	frames int // 0 = unbounded

	slot index    // resident key → slot
	keys []uint64 // slot → resident key

	// hand is the next slot round-robin and clock consider; ref is the
	// per-slot reference bit, which only clock sets, so round-robin is
	// the clock sweep with every second chance spent.
	hand int
	ref  []bool

	// prev and next link lru's circular recency list. Node 0 is the
	// sentinel and slot s is node s+1: next[0] is the least recently
	// touched slot's node, prev[0] the most recent.
	prev, next []int32

	// sorted holds random's resident keys: in admission order while
	// memory fills, sorted once at the first eviction, and kept in
	// ascending order from then on.
	sorted []uint64
	rnd    rng.Source

	faults, evicts uint64
}

// New builds a kernel for the named policy. frames bounds the number of
// simultaneously resident pages; 0 means unbounded. seed feeds the
// random policy's stream and is ignored by the rest.
func New(name string, frames int, seed uint64) (*Kernel, error) {
	if frames < 0 {
		return nil, fmt.Errorf("oskernel: negative frame budget %d", frames)
	}
	if name == "" {
		name = policyNames[firstTouch]
	}
	i := slices.Index(policyNames[:], name)
	if i < 0 {
		return nil, fmt.Errorf("oskernel: unknown policy %q (have %v)", name, Policies())
	}
	k := &Kernel{pol: policy(i), frames: frames}
	switch k.pol {
	case random:
		k.rnd.Seed(seed ^ KernelSeedSalt)
	case lru:
		k.prev, k.next = []int32{0}, []int32{0}
	}
	return k, nil
}

// Policy returns the active policy's name.
func (k *Kernel) Policy() string { return policyNames[k.pol] }

// Resident returns the number of currently resident pages.
func (k *Kernel) Resident() int { return len(k.keys) }

// Faults and Evictions expose lifetime totals for tests; the engine's
// warmup-aware counters are authoritative for results.
func (k *Kernel) Faults() uint64    { return k.faults }
func (k *Kernel) Evictions() uint64 { return k.evicts }

// Touch records that (asid, vpn) was demanded by a TLB-hierarchy miss.
// It returns whether the touch page-faulted, and — when admitting the
// page forced an eviction — the victim page the caller must shoot down
// on every other core. A full budget with a non-evicting policy returns
// an error wrapping simerr.ErrMemExhausted.
func (k *Kernel) Touch(asid uint8, vpn uint64) (evicted Page, haveEvict, fault bool, err error) {
	key := Page{ASID: asid, VPN: vpn}.key()
	at, ok := k.slot.find(key)
	if ok {
		k.touched(k.slot.tab[at].slot)
		return Page{}, false, false, nil
	}
	fault = k.pol != firstTouch
	if fault {
		k.faults++
	}
	s := int32(len(k.keys))
	if k.frames > 0 && len(k.keys) >= k.frames {
		if k.pol == firstTouch {
			return Page{}, false, fault, fmt.Errorf(
				"oskernel: %s policy over %d frames cannot place page asid=%d vpn=%#x: %w",
				k.Policy(), k.frames, asid, vpn, simerr.ErrMemExhausted)
		}
		s = k.victim()
		vk := k.keys[s]
		k.slot.remove(vk)
		at = -1 // the removal may have moved key's place
		k.keys[s] = key
		k.evicts++
		evicted, haveEvict = pageOf(vk), true
	} else {
		k.keys = append(k.keys, key)
	}
	k.slot.put(key, s, at)
	k.admit(s, key)
	return evicted, haveEvict, fault, nil
}

// touched refreshes the recency state of resident slot s.
func (k *Kernel) touched(s int32) {
	switch k.pol {
	case lru:
		if n := s + 1; k.prev[0] != n {
			k.unlink(n)
			k.pushMRU(n)
		}
	case clock:
		k.ref[s] = true
	}
}

// admit records that key became resident in slot s: a fresh slot at
// the end while memory fills, the victim's slot once it is full.
func (k *Kernel) admit(s int32, key uint64) {
	switch k.pol {
	case roundRobin, clock:
		bit := k.pol == clock
		if int(s) == len(k.ref) {
			k.ref = append(k.ref, bit)
		} else {
			k.ref[s] = bit
		}
	case lru:
		if n := int(s) + 1; n == len(k.prev) {
			k.prev, k.next = append(k.prev, 0), append(k.next, 0)
		}
		k.pushMRU(s + 1)
	case random:
		if k.evicts == 0 { // still filling: order does not matter yet
			k.sorted = append(k.sorted, key)
		} else {
			i, _ := slices.BinarySearch(k.sorted, key)
			k.sorted = slices.Insert(k.sorted, i, key)
		}
	}
}

// victim chooses the slot to evict from a full memory and drops it
// from the policy's order; the caller reuses the slot for the admitted
// page.
func (k *Kernel) victim() int32 {
	n := len(k.keys)
	switch k.pol {
	case lru:
		v := k.next[0]
		k.unlink(v)
		return v - 1
	case random:
		if k.evicts == 0 { // memory has just filled
			slices.Sort(k.sorted)
		}
		i := k.rnd.Intn(n)
		v := k.sorted[i]
		k.sorted = slices.Delete(k.sorted, i, i+1)
		at, _ := k.slot.find(v)
		return k.slot.tab[at].slot
	default: // roundRobin, clock
		for k.ref[k.hand] {
			k.ref[k.hand] = false
			k.hand = (k.hand + 1) % n
		}
		s := k.hand
		k.hand = (s + 1) % n
		return int32(s)
	}
}

// unlink removes node n from lru's recency list.
func (k *Kernel) unlink(n int32) {
	p, q := k.prev[n], k.next[n]
	k.next[p], k.prev[q] = q, p
}

// pushMRU links node n in as the most recently touched.
func (k *Kernel) pushMRU(n int32) {
	p := k.prev[0]
	k.prev[n], k.next[n] = p, 0
	k.next[p], k.prev[0] = n, n
}

// index maps resident keys to their slots. It is open-addressed with
// linear probing and deletes by shifting the entries after a hole back
// into it, so it holds no tombstones and its layout depends only on the
// keys it holds. Its capacity is a power of two of at least twice the
// number of keys, and it grows only when a key is added beyond that: an
// eviction removes one key before the admitted page adds one, so a full
// kernel's index never grows, and nothing sizes it from the frame
// budget.
type index struct {
	// tab holds key+1 (0 marks an empty entry) and its slot; shift
	// takes a key's hash down to a home entry.
	tab   []indexEntry
	shift uint
	n     int
}

type indexEntry struct {
	tag  uint64
	slot int32
}

// home returns key's first probe position: Fibonacci hashing, the top
// bits of key times 2^64/φ.
func (x *index) home(key uint64) int {
	return int((key * 0x9E3779B97F4A7C15) >> x.shift)
}

// find returns the position of key's entry and true, or, when key is
// absent, the empty position that ends its probe run (-1 in an empty
// index) and false.
func (x *index) find(key uint64) (int, bool) {
	if len(x.tab) == 0 {
		return -1, false
	}
	mask := len(x.tab) - 1
	for i := x.home(key); ; i = (i + 1) & mask {
		switch x.tab[i].tag {
		case key + 1:
			return i, true
		case 0:
			return i, false
		}
	}
}

// put adds key, which is absent, at slot s. at is the position find
// returned for key, or -1 when the index has changed since.
func (x *index) put(key uint64, s int32, at int) {
	if 2*(x.n+1) > len(x.tab) {
		x.grow()
		at = -1
	}
	if at < 0 {
		at, _ = x.find(key)
	}
	x.tab[at] = indexEntry{tag: key + 1, slot: s}
	x.n++
}

// remove deletes key, which is present, then moves back each entry of
// the probe run after the hole that may fill it — one whose home does
// not lie cyclically between the hole and the entry — so every entry
// stays reachable from its home without a gap.
func (x *index) remove(key uint64) {
	mask := len(x.tab) - 1
	i, _ := x.find(key)
	for j := (i + 1) & mask; x.tab[j].tag != 0; j = (j + 1) & mask {
		if h := x.home(x.tab[j].tag - 1); (j-h)&mask >= (j-i)&mask {
			x.tab[i] = x.tab[j]
			i = j
		}
	}
	x.tab[i] = indexEntry{}
	x.n--
}

// grow doubles the table (to 16 entries at first) and re-adds every
// entry.
func (x *index) grow() {
	old := x.tab
	size := max(16, 2*len(old))
	x.tab = make([]indexEntry, size)
	x.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for _, e := range old {
		if e.tag != 0 {
			at, _ := x.find(e.tag - 1)
			x.tab[at] = e
		}
	}
}
