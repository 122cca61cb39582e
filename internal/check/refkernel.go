package check

import (
	"fmt"

	"repro/internal/oskernel"
	"repro/internal/rng"
	"repro/internal/simerr"
)

// refKernel is the deliberately naive model of the OS memory manager
// (internal/oskernel): a flat slice of resident pages searched linearly,
// with each replacement policy implemented directly over it. The
// policies are specified behaviorally — FIFO admission order, oldest
// miss-stamp, second-chance ring, Intn(n)-th smallest key — so this
// model reproduces the kernel's victim sequence from the spec alone.
// The random policy shares internal/rng and oskernel.KernelSeedSalt,
// the same deliberate seed coupling the TLB models use.
type refKernel struct {
	policy string
	frames int

	// pages is the resident set in admission order (the FIFO order
	// round-robin consumes). A page's stamp is its last-touch tick
	// (LRU); ref its second-chance bit (clock).
	pages []refPage
	tick  uint64

	// ring and hand model the clock policy's geometry: slots in
	// admission order, each eviction vacating exactly the slot the next
	// admission reuses.
	ring []refClockEnt
	hand int

	rand *rng.Source

	faults, evicts uint64
}

type refPage struct {
	key   uint64
	stamp uint64
}

type refClockEnt struct {
	key   uint64
	valid bool
	ref   bool
}

func newRefKernel(policy string, frames int, seed uint64) *refKernel {
	if policy == "" {
		policy = "first-touch"
	}
	return &refKernel{
		policy: policy,
		frames: frames,
		rand:   rng.New(seed ^ oskernel.KernelSeedSalt),
	}
}

func (k *refKernel) chargesFaults() bool { return k.policy != "first-touch" }

// find returns the resident index of key, or -1.
func (k *refKernel) find(key uint64) int {
	for i := range k.pages {
		if k.pages[i].key == key {
			return i
		}
	}
	return -1
}

// touch is the model of oskernel.Kernel.Touch: resident pages refresh
// recency; non-resident ones fault (except first-touch), evict a victim
// when the budget is full, and become resident.
func (k *refKernel) touch(asid uint8, vpn uint64) (evicted oskernel.Page, haveEvict, fault bool, err error) {
	key := uint64(asid)<<32 | vpn
	if i := k.find(key); i >= 0 {
		k.touched(i, key)
		return oskernel.Page{}, false, false, nil
	}
	fault = k.chargesFaults()
	if fault {
		k.faults++
	}
	if k.frames > 0 && len(k.pages) >= k.frames {
		vk, ok := k.victim()
		if !ok {
			return oskernel.Page{}, false, fault, fmt.Errorf(
				"check: %s policy over %d frames cannot place page asid=%d vpn=%#x: %w",
				k.policy, k.frames, asid, vpn, simerr.ErrMemExhausted)
		}
		k.remove(vk)
		k.evicts++
		evicted = oskernel.Page{ASID: uint8(vk >> 32), VPN: vk & (1<<32 - 1)}
		haveEvict = true
	}
	k.admit(key)
	return evicted, haveEvict, fault, nil
}

// touched refreshes recency state for a resident page.
func (k *refKernel) touched(i int, key uint64) {
	switch k.policy {
	case "lru":
		k.tick++
		k.pages[i].stamp = k.tick
	case "clock":
		for j := range k.ring {
			if k.ring[j].valid && k.ring[j].key == key {
				k.ring[j].ref = true
				return
			}
		}
	}
}

// admit appends key to the resident set and updates policy state.
func (k *refKernel) admit(key uint64) {
	k.tick++
	k.pages = append(k.pages, refPage{key: key, stamp: k.tick})
	if k.policy == "clock" {
		// Fill the slot the last eviction vacated; grow while the ring is
		// still filling.
		for j := range k.ring {
			if !k.ring[j].valid {
				k.ring[j] = refClockEnt{key: key, valid: true, ref: true}
				return
			}
		}
		k.ring = append(k.ring, refClockEnt{key: key, valid: true, ref: true})
	}
}

// remove deletes key from the resident set (order-preserving: the slice
// is the FIFO order round-robin consumes).
func (k *refKernel) remove(key uint64) {
	if i := k.find(key); i >= 0 {
		k.pages = append(k.pages[:i], k.pages[i+1:]...)
	}
	if k.policy == "clock" {
		for j := range k.ring {
			if k.ring[j].valid && k.ring[j].key == key {
				k.ring[j] = refClockEnt{}
				return
			}
		}
	}
}

// victim picks the page to evict per the policy's behavioral spec.
func (k *refKernel) victim() (uint64, bool) {
	if len(k.pages) == 0 {
		return 0, false
	}
	switch k.policy {
	case "first-touch":
		return 0, false
	case "round-robin":
		// Oldest admission: the slice front.
		return k.pages[0].key, true
	case "lru":
		// Oldest miss-stamp; stamps are unique, so no ties exist.
		best := 0
		for i := range k.pages {
			if k.pages[i].stamp < k.pages[best].stamp {
				best = i
			}
		}
		return k.pages[best].key, true
	case "clock":
		// Second chance: sweep from the hand, clearing reference bits,
		// evicting the first unreferenced valid entry.
		for {
			e := &k.ring[k.hand]
			if e.valid && !e.ref {
				v := e.key
				k.hand = (k.hand + 1) % len(k.ring)
				return v, true
			}
			e.ref = false
			k.hand = (k.hand + 1) % len(k.ring)
		}
	case "random":
		// The Intn(n)-th smallest resident key, over the shared stream.
		n := k.rand.Intn(len(k.pages))
		keys := make([]uint64, len(k.pages))
		for i := range k.pages {
			keys[i] = k.pages[i].key
		}
		// Naive selection sort up to index n, redone from scratch on
		// every eviction — independent of the sorted key slice the
		// kernel maintains incrementally.
		for i := 0; i <= n; i++ {
			min := i
			for j := i + 1; j < len(keys); j++ {
				if keys[j] < keys[min] {
					min = j
				}
			}
			keys[i], keys[min] = keys[min], keys[i]
		}
		return keys[n], true
	default:
		return 0, false
	}
}
