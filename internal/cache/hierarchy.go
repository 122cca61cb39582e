package cache

// Level identifies where in the memory hierarchy an access was satisfied.
type Level int

// Hierarchy levels, ordered by distance from the processor.
const (
	// L1Hit: the access hit the level-1 cache.
	L1Hit Level = 1
	// L2Hit: the access missed L1 but hit the level-2 cache.
	L2Hit Level = 2
	// Memory: the access missed both cache levels.
	Memory Level = 3
)

// String returns a short label for the level.
func (l Level) String() string {
	switch l {
	case L1Hit:
		return "L1"
	case L2Hit:
		return "L2"
	case Memory:
		return "MEM"
	default:
		return "invalid"
	}
}

// Hierarchy is a two-level blocking cache stack (one side of the split
// hierarchy: either the instruction side or the data side). Both levels
// are virtually indexed; on an L1 miss the reference proceeds to L2, and
// on an L2 miss the line is brought in from memory and allocated at both
// levels (blocking, write-allocate at both levels).
//
// The two Caches are embedded by value: a Hierarchy access is the hottest
// cache operation in the simulator (twice per simulated instruction), and
// keeping both levels' headers in one allocation saves a pointer chase
// per reference.
type Hierarchy struct {
	l1 Cache
	l2 Cache
}

// NewHierarchy builds a two-level stack from the two cache configs.
func NewHierarchy(l1, l2 Config) *Hierarchy {
	h := &Hierarchy{}
	h.Reset(l1, l2)
	return h
}

// Reset re-initializes both levels in place for the two cache configs
// (Cache.Reset): afterwards h behaves exactly as NewHierarchy(l1, l2)
// would, reusing h's arrays, and every L1Probe taken before is stale.
func (h *Hierarchy) Reset(l1, l2 Config) {
	h.l1.Reset(l1)
	h.l2.Reset(l2)
}

// Access performs a reference at address a and returns the level that
// satisfied it, filling lines on the way (write-allocate, both levels).
// The L1 hit probe — the overwhelmingly common outcome — is hand-inlined
// so the simulator's default path through a reference is one call and one
// compare; see Cache.Access for the fast/fastMask scheme.
func (h *Hierarchy) Access(a uint64) Level {
	l1 := &h.l1
	line := a >> l1.lineShift
	if l1.fast[line&l1.fastMask] == line+1 {
		l1.hits++
		return L1Hit
	}
	if l1.accessSlow(line) {
		return L1Hit
	}
	if h.l2.Access(a) {
		return L2Hit
	}
	return Memory
}

// Probe reports the level that would satisfy a reference to a, without
// changing any cache state.
func (h *Hierarchy) Probe(a uint64) Level {
	if h.l1.Probe(a) {
		return L1Hit
	}
	if h.l2.Probe(a) {
		return L2Hit
	}
	return Memory
}

// L1Probe is a hand-inlinable view of the level-1 hit probe, for callers
// whose per-reference loop cannot afford a function call per access. Hit
// is semantically identical to "Access(a) == L1Hit would have hit L1";
// on a Hit miss the caller must complete the reference with
// AccessMissedL1. The probe stays valid until the hierarchy's next
// Reset, which may hand the L1 other arrays: take a new one after it.
type L1Probe struct {
	lines []uint64
	shift uint
	mask  uint64
	hits  *uint64
}

// Hit probes L1 for address a, counting and reporting a hit. It performs
// no fill: a false return must be followed by AccessMissedL1(a), which
// finishes the access (L1 fill or way-scan, then L2).
func (p *L1Probe) Hit(a uint64) bool {
	line := a >> p.shift
	if p.lines[line&p.mask] == line+1 {
		*p.hits++
		return true
	}
	return false
}

// HitQuiet reports whether a would hit L1, without tallying the hit;
// callers whose loop batches statistics fold the hits back in with one
// AddHits call. Like Hit, a false return must be completed with
// AccessMissedL1.
func (p *L1Probe) HitQuiet(a uint64) bool {
	line := a >> p.shift
	return p.lines[line&p.mask] == line+1
}

// AddHits folds a batch of externally-tallied probe hits into the L1
// statistics; see HitQuiet.
func (p *L1Probe) AddHits(n uint64) { *p.hits += n }

// Shift returns the line shift, letting callers derive the line key
// (address >> Shift) the probe compares on.
func (p *L1Probe) Shift() uint { return p.shift }

// L1Probe returns the fast-probe view of the hierarchy's L1.
func (h *Hierarchy) L1Probe() L1Probe {
	l1 := &h.l1
	return L1Probe{lines: l1.fast, shift: l1.lineShift, mask: l1.fastMask, hits: &l1.hits}
}

// AccessMissedL1 completes an access whose L1Probe.Hit returned false:
// the L1 fill or set-associative way-scan, then the L2 access. Calling it
// without the preceding failed probe would skip the L1 hit accounting.
func (h *Hierarchy) AccessMissedL1(a uint64) Level {
	l1 := &h.l1
	if l1.accessSlow(a >> l1.lineShift) {
		return L1Hit
	}
	if h.l2.Access(a) {
		return L2Hit
	}
	return Memory
}

// L1 returns the level-1 cache.
func (h *Hierarchy) L1() *Cache { return &h.l1 }

// L2 returns the level-2 cache.
func (h *Hierarchy) L2() *Cache { return &h.l2 }

// Flush invalidates both levels.
func (h *Hierarchy) Flush() {
	h.l1.Flush()
	h.l2.Flush()
}

// ResetStats clears statistics at both levels.
func (h *Hierarchy) ResetStats() {
	h.l1.ResetStats()
	h.l2.ResetStats()
}
