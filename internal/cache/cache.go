// Package cache models the virtually-addressed, blocking cache hierarchy
// the paper simulates: split, direct-mapped, write-allocate, write-through
// caches at both L1 and L2 (paper Table 1).
//
// Because the caches are write-through, no line is ever dirty and there is
// no writeback traffic to model; the simulation cost model charges only
// for misses (20 cycles to reach L2, 500 cycles to reach memory — paper
// Table 2). A store therefore behaves exactly like a load for the purposes
// of miss accounting: write-allocate means a store miss fetches the line.
//
// Direct-mapped is the paper's configuration ("set associative or unified
// caches, while giving better performance, would add too many variables"),
// but the package also supports set associativity with LRU replacement as
// an ablation knob.
package cache

import (
	"fmt"

	"repro/internal/addr"
)

// Config describes a single cache.
type Config struct {
	// SizeBytes is the capacity in bytes ("per side" in paper terms:
	// a split cache is modelled as two independent Caches).
	SizeBytes int
	// LineBytes is the line (block) size in bytes.
	LineBytes int
	// Assoc is the set associativity; 1 means direct-mapped. 0 is
	// normalized to 1.
	Assoc int
}

// Validate reports whether the configuration is internally consistent.
func (c Config) Validate() error {
	assoc := c.Assoc
	if assoc == 0 {
		assoc = 1
	}
	switch {
	case c.SizeBytes <= 0:
		return fmt.Errorf("cache: size %d must be positive", c.SizeBytes)
	case c.LineBytes <= 0:
		return fmt.Errorf("cache: line size %d must be positive", c.LineBytes)
	case !addr.IsPow2(uint64(c.SizeBytes)):
		return fmt.Errorf("cache: size %d must be a power of two", c.SizeBytes)
	case !addr.IsPow2(uint64(c.LineBytes)):
		return fmt.Errorf("cache: line size %d must be a power of two", c.LineBytes)
	case assoc < 0 || !addr.IsPow2(uint64(assoc)):
		return fmt.Errorf("cache: associativity %d must be a positive power of two", c.Assoc)
	case c.SizeBytes < c.LineBytes*assoc:
		return fmt.Errorf("cache: size %d too small for %d-byte lines at associativity %d",
			c.SizeBytes, c.LineBytes, assoc)
	}
	return nil
}

// Stats accumulates access counts for one cache.
type Stats struct {
	Accesses uint64
	Misses   uint64
}

// MissRate returns Misses/Accesses, or 0 for an untouched cache.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Cache is a single cache array. It is indexed by whatever address it is
// handed; the simulation hands it virtual addresses, making it a virtual
// cache exactly as in the paper.
type Cache struct {
	cfg       Config
	lineShift uint
	setMask   uint64
	assoc     int
	// lines holds, per way-slot, the line address + 1 (so that the zero
	// value means "invalid"). Layout: set-major, way-minor.
	lines []uint64
	// fast is the inlined hit-probe array: for direct-mapped caches it
	// aliases lines (probe = one load + compare), while for the
	// set-associative ablation it is a single permanently-invalid slot
	// with fastMask 0, so the inlined probe always falls through to the
	// full way-scan in accessSlow. This keeps Access small enough for
	// the compiler to inline the hit path into the hierarchy walk.
	fast     []uint64
	fastMask uint64
	// age holds per-slot LRU counters (only consulted when assoc > 1).
	age  []uint64
	tick uint64

	// Statistics are kept as separate hit/miss tallies — Stats() derives
	// Accesses as their sum — so the inlined hit path pays one counter
	// increment and stays inside the compiler's inlining budget.
	hits   uint64
	misses uint64

	// filled lists the slots that went from empty to filled since the
	// last Reset, so that Reset clears only those. It holds at most
	// fillMax slots; once it is full a run lists no more and the next
	// Reset clears in full. New leaves it empty with fillMax 0, so a
	// cache that is never reset allocates no list.
	filled  []int32
	fillMax int
}

// New constructs a cache. It panics on an invalid configuration: cache
// shapes come from experiment configs that are validated up front, so an
// invalid shape reaching this point is a programming error.
func New(cfg Config) *Cache {
	c := &Cache{}
	c.Reset(cfg)
	return c
}

// fillFraction bounds a cache's fill list to 1/fillFraction of its lines.
// Clearing one listed slot costs a scattered store where a full clear
// costs a sequential one, so a run that fills more than about this share
// of the lines is cheaper to clear in full.
const fillFraction = 8

// Reset re-initializes c for cfg in place: afterwards c behaves exactly
// as New(cfg) would. It first restores to zero every entry the last run
// wrote — only the slots it listed as filled, or every entry of the last
// geometry once that run's list is full — so every
// entry of c's backing arrays is zero again, and the new geometry reuses
// them whenever they have the room. A Reset therefore costs time in
// proportion to what the last run filled, not to the cache size, and
// allocates only when the arrays (or the fill list, allocated at the
// first Reset of arrays already in use) lack the room. It panics on an
// invalid configuration, as New does.
func (c *Cache) Reset(cfg Config) {
	if cfg.Assoc == 0 {
		cfg.Assoc = 1
	}
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c.clean()
	nLines := cfg.SizeBytes / cfg.LineBytes
	nSets := nLines / cfg.Assoc
	lineShift, setMask := addr.IndexShiftMask(uint64(cfg.LineBytes), uint64(nSets))
	lines, age, filled := c.lines, c.age, c.filled
	*c = Cache{
		cfg:       cfg,
		lineShift: lineShift,
		setMask:   setMask,
		assoc:     cfg.Assoc,
		lines:     fit(lines, nLines),
	}
	if cap(lines) > 0 {
		c.fillMax = nLines / fillFraction
		c.filled = fit(filled, c.fillMax)[:0]
	}
	if cfg.Assoc > 1 {
		c.age = fit(age, nLines)
		c.fast = neverHits
		c.fastMask = 0
	} else {
		c.age = age[:0] // kept for a later set-associative Reset
		c.fast = c.lines
		c.fastMask = c.setMask
	}
}

// clean zeroes every entry of c's arrays that the run since the last
// Reset may have written: the listed slots and their LRU ages, or, when
// the list is full, the whole of the current geometry's arrays.
// Entries beyond the current geometry are already zero, since every
// Reset cleans before it re-slices.
func (c *Cache) clean() {
	if len(c.filled) < c.fillMax {
		for _, s := range c.filled {
			c.lines[s] = 0
		}
		if len(c.age) > 0 {
			for _, s := range c.filled {
				c.age[s] = 0
			}
		}
		return
	}
	clear(c.lines)
	clear(c.age)
}

// noteFill lists slot s, about to be filled, for the next Reset to
// clear if it is empty now; a full list takes nothing more, and that
// Reset clears in full. The list's room is tested first: a cache
// without a list (one New built and never reset) or with a full one then
// pays a compare that always goes one way, not a branch on the slot's
// contents, which mispredicts.
func (c *Cache) noteFill(s int) {
	if len(c.filled) < c.fillMax && c.lines[s] == 0 {
		c.filled = append(c.filled, int32(s))
	}
}

// neverHits is the fast-probe array of every set-associative cache: one
// permanently invalid slot, only ever read.
var neverHits = []uint64{0}

// fit returns buf cut to n entries, or a new (zeroed) array when buf has
// not the room. The entries of a reused buf are zero: Reset cleans a
// cache's arrays before it re-slices them.
func fit[T uint64 | int32](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// Config returns the configuration the cache was built with.
func (c *Cache) Config() Config { return c.cfg }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return len(c.lines) / c.assoc }

// LineAddr returns the line-granular address (address >> lineShift) of a.
func (c *Cache) LineAddr(a uint64) uint64 { return a >> c.lineShift }

// Access performs a load or store at address a: it probes the cache and,
// on a miss, allocates the line (write-allocate). It returns true on hit.
// The body is only the direct-mapped hit probe — the common case in the
// paper's configuration — sized to inline into the hierarchy walk;
// everything else (direct-mapped fills, the set-associative ablation)
// lives in accessSlow.
func (c *Cache) Access(a uint64) bool {
	line := a >> c.lineShift
	if c.fast[line&c.fastMask] == line+1 {
		c.hits++
		return true
	}
	return c.accessSlow(line)
}

// accessSlow completes an Access whose inlined fast probe did not hit: a
// direct-mapped miss (fill the line), or any set-associative access (the
// fast probe never hits when assoc > 1).
func (c *Cache) accessSlow(line uint64) bool {
	key := line + 1
	set := int(line&c.setMask) * c.assoc
	if c.assoc == 1 {
		c.noteFill(set)
		c.lines[set] = key
		c.misses++
		return false
	}
	c.tick++
	victim := set
	oldest := ^uint64(0)
	for w := set; w < set+c.assoc; w++ {
		if c.lines[w] == key {
			c.age[w] = c.tick
			c.hits++
			return true
		}
		if c.age[w] < oldest {
			oldest = c.age[w]
			victim = w
		}
	}
	c.noteFill(victim)
	c.lines[victim] = key
	c.age[victim] = c.tick
	c.misses++
	return false
}

// Probe reports whether address a is resident without changing any state
// (no fill, no LRU update, no statistics).
func (c *Cache) Probe(a uint64) bool {
	line := a >> c.lineShift
	key := line + 1
	set := int(line&c.setMask) * c.assoc
	for w := set; w < set+c.assoc; w++ {
		if c.lines[w] == key {
			return true
		}
	}
	return false
}

// Invalidate removes the line containing a if it is resident, returning
// whether it was. It models software-managed consistency actions (the VMP
// style the paper cites) and is used by failure-injection tests.
func (c *Cache) Invalidate(a uint64) bool {
	line := a >> c.lineShift
	key := line + 1
	set := int(line&c.setMask) * c.assoc
	for w := set; w < set+c.assoc; w++ {
		if c.lines[w] == key {
			c.lines[w] = 0
			return true
		}
	}
	return false
}

// Flush invalidates the entire cache. Statistics are preserved.
func (c *Cache) Flush() {
	clear(c.lines)
	clear(c.age)
	c.filled = c.filled[:0]
}

// Stats returns the accumulated statistics.
func (c *Cache) Stats() Stats {
	return Stats{Accesses: c.hits + c.misses, Misses: c.misses}
}

// ResetStats clears the accumulated statistics without touching contents.
func (c *Cache) ResetStats() { c.hits, c.misses = 0, 0 }

// Resident returns the number of valid lines currently held.
func (c *Cache) Resident() int {
	n := 0
	for _, l := range c.lines {
		if l != 0 {
			n++
		}
	}
	return n
}
