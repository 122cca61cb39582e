package cache

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestConfigValidate(t *testing.T) {
	good := []Config{
		{SizeBytes: 1024, LineBytes: 16},
		{SizeBytes: 128 << 10, LineBytes: 128, Assoc: 1},
		{SizeBytes: 4096, LineBytes: 64, Assoc: 4},
		{SizeBytes: 64, LineBytes: 16, Assoc: 4}, // fully associative
	}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", c, err)
		}
	}
	bad := []Config{
		{SizeBytes: 0, LineBytes: 16},
		{SizeBytes: 1024, LineBytes: 0},
		{SizeBytes: 1000, LineBytes: 16},
		{SizeBytes: 1024, LineBytes: 24},
		{SizeBytes: 1024, LineBytes: 16, Assoc: 3},
		{SizeBytes: 32, LineBytes: 16, Assoc: 4}, // too small
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", c)
		}
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := New(Config{SizeBytes: 1024, LineBytes: 16})
	if c.Access(0x100) {
		t.Fatal("cold access reported a hit")
	}
	if !c.Access(0x100) {
		t.Fatal("second access to same address missed")
	}
	if !c.Access(0x10F) {
		t.Fatal("access within same 16-byte line missed")
	}
	if c.Access(0x110) {
		t.Fatal("access to adjacent line hit")
	}
}

func TestDirectMappedConflict(t *testing.T) {
	// 1KB direct-mapped, 16B lines -> 64 sets. Addresses 1KB apart
	// conflict.
	c := New(Config{SizeBytes: 1024, LineBytes: 16})
	c.Access(0x0)
	c.Access(0x400) // evicts 0x0
	if c.Access(0x0) {
		t.Fatal("conflicting line survived direct-mapped eviction")
	}
}

func TestSetAssocAvoidsConflict(t *testing.T) {
	c := New(Config{SizeBytes: 1024, LineBytes: 16, Assoc: 2})
	c.Access(0x0)
	c.Access(0x400) // same set, second way
	if !c.Access(0x0) {
		t.Fatal("2-way cache evicted a line with a free way... or LRU broken")
	}
	if !c.Access(0x400) {
		t.Fatal("second way lost")
	}
}

func TestLRUReplacement(t *testing.T) {
	// 2 ways per set; touch A, B (same set), then A again, then C: B must
	// be the victim.
	c := New(Config{SizeBytes: 64, LineBytes: 16, Assoc: 2}) // 2 sets
	const a, b, x = 0x00, 0x40, 0x80                         // all map to set 0
	c.Access(a)
	c.Access(b)
	c.Access(a) // a is now MRU
	c.Access(x) // evicts b
	if !c.Access(a) {
		t.Fatal("LRU evicted the most-recently-used line")
	}
	if c.Access(b) {
		t.Fatal("LRU failed to evict the least-recently-used line")
	}
}

func TestProbeDoesNotPerturb(t *testing.T) {
	c := New(Config{SizeBytes: 1024, LineBytes: 16})
	if c.Probe(0x123) {
		t.Fatal("probe of empty cache hit")
	}
	st := c.Stats()
	if st.Accesses != 0 {
		t.Fatal("probe counted as access")
	}
	c.Access(0x123)
	if !c.Probe(0x123) {
		t.Fatal("probe missed resident line")
	}
	if c.Resident() != 1 {
		t.Fatalf("Resident() = %d, want 1", c.Resident())
	}
}

func TestInvalidate(t *testing.T) {
	c := New(Config{SizeBytes: 1024, LineBytes: 32})
	c.Access(0x200)
	if !c.Invalidate(0x210) { // same line
		t.Fatal("Invalidate missed resident line")
	}
	if c.Probe(0x200) {
		t.Fatal("line still resident after Invalidate")
	}
	if c.Invalidate(0x200) {
		t.Fatal("Invalidate of absent line reported true")
	}
}

func TestFlushPreservesStats(t *testing.T) {
	c := New(Config{SizeBytes: 1024, LineBytes: 16})
	c.Access(0x0)
	c.Access(0x0)
	c.Flush()
	if c.Resident() != 0 {
		t.Fatal("flush left resident lines")
	}
	st := c.Stats()
	if st.Accesses != 2 || st.Misses != 1 {
		t.Fatalf("stats after flush = %+v, want {2 1}", st)
	}
	if c.Access(0x0) {
		t.Fatal("post-flush access hit")
	}
}

func TestStatsAndMissRate(t *testing.T) {
	c := New(Config{SizeBytes: 1024, LineBytes: 16})
	for i := 0; i < 10; i++ {
		c.Access(uint64(i) * 16)
	}
	for i := 0; i < 10; i++ {
		c.Access(uint64(i) * 16)
	}
	st := c.Stats()
	if st.Accesses != 20 || st.Misses != 10 {
		t.Fatalf("stats = %+v, want {20 10}", st)
	}
	if st.MissRate() != 0.5 {
		t.Fatalf("MissRate = %v, want 0.5", st.MissRate())
	}
	c.ResetStats()
	if c.Stats() != (Stats{}) {
		t.Fatal("ResetStats did not clear")
	}
	if (Stats{}).MissRate() != 0 {
		t.Fatal("MissRate of empty stats not 0")
	}
}

func TestWorkingSetSmallerThanCacheHasOnlyColdMisses(t *testing.T) {
	// Sequential sweep over half the cache, repeated: after the first
	// pass everything hits (fundamental property the paper's analysis
	// relies on for "table fits in cache" arguments).
	c := New(Config{SizeBytes: 8192, LineBytes: 64})
	const lines = 8192 / 64 / 2
	for pass := 0; pass < 4; pass++ {
		for i := 0; i < lines; i++ {
			c.Access(uint64(i) * 64)
		}
	}
	st := c.Stats()
	if st.Misses != lines {
		t.Fatalf("misses = %d, want %d (cold only)", st.Misses, lines)
	}
}

func TestCyclicSweepLargerThanDirectMappedCacheAlwaysMisses(t *testing.T) {
	c := New(Config{SizeBytes: 1024, LineBytes: 64})
	// 32 distinct lines into a 16-line cache, strided so every set sees
	// two competing lines: classic 100% miss pattern.
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < 32; i++ {
			c.Access(uint64(i) * 64)
		}
	}
	st := c.Stats()
	if st.Misses != st.Accesses {
		t.Fatalf("misses = %d of %d accesses, want all misses", st.Misses, st.Accesses)
	}
}

func TestLargerLinesExploitSpatialLocality(t *testing.T) {
	// Sequential byte-stride scan: miss count should halve when line size
	// doubles. This is the mechanism behind the paper's linesize curves.
	miss := func(line int) uint64 {
		c := New(Config{SizeBytes: 64 << 10, LineBytes: line})
		for a := uint64(0); a < 16<<10; a += 4 {
			c.Access(a)
		}
		return c.Stats().Misses
	}
	m16, m32, m64 := miss(16), miss(32), miss(64)
	if m32*2 != m16 || m64*2 != m32 {
		t.Fatalf("sequential misses %d/%d/%d do not halve with linesize", m16, m32, m64)
	}
}

func TestResidentNeverExceedsCapacity(t *testing.T) {
	c := New(Config{SizeBytes: 512, LineBytes: 16, Assoc: 2})
	r := rng.New(99)
	for i := 0; i < 10000; i++ {
		c.Access(r.Uint64() & 0xFFFFF)
	}
	if c.Resident() > 512/16 {
		t.Fatalf("resident %d exceeds capacity %d", c.Resident(), 512/16)
	}
}

func TestAccessAfterMissIsHitProperty(t *testing.T) {
	// Property: immediately re-accessing any address hits, for arbitrary
	// cache shapes.
	f := func(raw uint64, sizeSel, lineSel, assocSel uint8) bool {
		size := 1 << (9 + sizeSel%6) // 512B..16KB
		line := 16 << (lineSel % 4)  // 16..128
		assoc := 1 << (assocSel % 3) // 1,2,4
		if size < line*assoc {
			return true
		}
		c := New(Config{SizeBytes: size, LineBytes: line, Assoc: assoc})
		a := raw & 0xFFFFFFFF
		c.Access(a)
		return c.Access(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSameLineSameSetProperty(t *testing.T) {
	// Property: two addresses on the same line always hit/miss together.
	f := func(base uint64, off1, off2 uint8) bool {
		c := New(Config{SizeBytes: 4096, LineBytes: 64})
		base &= 0xFFFFFFC0
		c.Access(base + uint64(off1%64))
		return c.Probe(base + uint64(off2%64))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHierarchyLevels(t *testing.T) {
	h := NewHierarchy(
		Config{SizeBytes: 1024, LineBytes: 16},
		Config{SizeBytes: 8192, LineBytes: 64},
	)
	if lvl := h.Access(0x1000); lvl != Memory {
		t.Fatalf("cold access = %v, want MEM", lvl)
	}
	if lvl := h.Access(0x1000); lvl != L1Hit {
		t.Fatalf("warm access = %v, want L1", lvl)
	}
	// Evict from L1 (1KB direct-mapped: +1KB conflicts) but the 8KB L2
	// still holds it.
	h.Access(0x1400)
	if lvl := h.Access(0x1000); lvl != L2Hit {
		t.Fatalf("L1-evicted access = %v, want L2", lvl)
	}
}

func TestHierarchyProbeNondestructive(t *testing.T) {
	h := NewHierarchy(
		Config{SizeBytes: 1024, LineBytes: 16},
		Config{SizeBytes: 8192, LineBytes: 64},
	)
	if h.Probe(0x2000) != Memory {
		t.Fatal("probe of empty hierarchy not MEM")
	}
	if h.L1().Stats().Accesses != 0 || h.L2().Stats().Accesses != 0 {
		t.Fatal("probe perturbed stats")
	}
	h.Access(0x2000)
	if h.Probe(0x2000) != L1Hit {
		t.Fatal("probe after access not L1")
	}
}

func TestHierarchyFlushAndReset(t *testing.T) {
	h := NewHierarchy(
		Config{SizeBytes: 1024, LineBytes: 16},
		Config{SizeBytes: 8192, LineBytes: 64},
	)
	h.Access(0x10)
	h.Flush()
	if h.Probe(0x10) != Memory {
		t.Fatal("flush left data resident")
	}
	h.ResetStats()
	if h.L1().Stats().Accesses != 0 {
		t.Fatal("ResetStats did not clear L1")
	}
}

func TestLevelString(t *testing.T) {
	cases := map[Level]string{L1Hit: "L1", L2Hit: "L2", Memory: "MEM", Level(0): "invalid"}
	for l, want := range cases {
		if l.String() != want {
			t.Errorf("Level(%d).String() = %q, want %q", l, l.String(), want)
		}
	}
}

// TestResetMatchesNew drives one cache through a run of geometries, each
// after a Reset, beside a fresh New cache: every access must answer
// alike, and a Reset into arrays that have the room allocates nothing.
// A geometry repeated at once finds every line it left behind, so a
// Reset that kept any contents or LRU ages would hit where New misses.
func TestResetMatchesNew(t *testing.T) {
	geoms := []Config{
		{SizeBytes: 8192, LineBytes: 16},
		{SizeBytes: 8192, LineBytes: 16},
		{SizeBytes: 4096, LineBytes: 64, Assoc: 4},
		{SizeBytes: 4096, LineBytes: 64, Assoc: 4},
		{SizeBytes: 2048, LineBytes: 32},
		{SizeBytes: 8192, LineBytes: 16, Assoc: 2},
		{SizeBytes: 16384, LineBytes: 16},
	}
	r := rng.New(7)
	addrs := make([]uint64, 20_000)
	for i := range addrs {
		addrs[i] = r.Uint64() & 0x1FFFF
	}
	var reused Cache
	for _, cfg := range geoms {
		reused.Reset(cfg)
		fresh := New(cfg)
		for i, a := range addrs {
			if got, want := reused.Access(a), fresh.Access(a); got != want {
				t.Fatalf("%+v access %d (%#x): Reset cache hit=%v, New cache hit=%v", cfg, i, a, got, want)
			}
		}
		if reused.Stats() != fresh.Stats() || reused.Resident() != fresh.Resident() {
			t.Fatalf("%+v: Reset cache %+v (%d resident), New cache %+v (%d resident)",
				cfg, reused.Stats(), reused.Resident(), fresh.Stats(), fresh.Resident())
		}
	}
	big, small := Config{SizeBytes: 16384, LineBytes: 16, Assoc: 2}, Config{SizeBytes: 4096, LineBytes: 32}
	reused.Reset(big)
	if n := testing.AllocsPerRun(20, func() { reused.Reset(small); reused.Reset(big) }); n != 0 {
		t.Errorf("Reset into arrays with room allocates %.1f objects, want 0", n)
	}
}

// TestSparseResetMatchesNew pins the sparse Reset: runs short enough
// that Reset clears only the slots they listed, in one cache whose
// geometry grows, shrinks and changes associativity, with Flush and
// Invalidate between Resets, and one run that overflows its list. Each
// run must answer every access exactly as a New cache of its geometry
// does, and each Reset must leave every entry of the backing arrays
// zero, beyond the current geometry too.
func TestSparseResetMatchesNew(t *testing.T) {
	r := rng.New(11)
	wide := func(n int) []uint64 { // random lines over 16 MB
		out := make([]uint64, n)
		for i := range out {
			out[i] = r.Uint64() & 0xFFFFFF
		}
		return out
	}
	dm := Config{SizeBytes: 1 << 20, LineBytes: 16}
	small := Config{SizeBytes: 16 << 10, LineBytes: 16}
	sa := Config{SizeBytes: 256 << 10, LineBytes: 32, Assoc: 4}
	// crowded lines fall on 16 of sa's 2,048 sets, eight per set: LRU
	// evicts all the time while at most 64 slots fill, so the run keeps
	// its list and every victim choice reads the ages Reset cleared.
	crowded := make([]uint64, 3_000)
	for i := range crowded {
		crowded[i] = uint64(r.Intn(16))*32 + uint64(r.Intn(8))*(2048*32)
	}
	short, long := wide(2_000), wide(20_000)
	flush := func(c *Cache) { c.Flush() }
	invalidate := func(c *Cache) {
		for _, a := range crowded[:200] {
			c.Invalidate(a)
		}
	}
	const (
		unlisted   = iota // no list: a New cache's first run
		listed            // the next Reset clears only listed slots
		overflowed        // the next Reset clears in full
	)
	steps := []struct {
		name    string
		cfg     Config
		addrs   []uint64
		between func(*Cache) // applied to both caches halfway through
		list    int
	}{
		{"new cache", dm, short, nil, unlisted},
		{"short run in a large cache", dm, short, nil, listed},
		{"same run after a sparse reset", dm, short, nil, listed},
		{"set-associative after direct-mapped", sa, crowded, nil, listed},
		{"set-associative again", sa, crowded, nil, listed},
		{"direct-mapped after set-associative", small, short[:100], nil, listed},
		{"set-associative after direct-mapped", sa, crowded, nil, listed},
		{"overflowing run", dm, long, nil, overflowed},
		{"shrink after overflow", small, long[:100], nil, listed},
		{"grow back", dm, long, nil, overflowed},
		{"flush between", dm, short, flush, listed},
		{"after a flush", dm, short, nil, listed},
		{"invalidate between", sa, crowded, invalidate, listed},
		{"after invalidations", sa, crowded, nil, listed},
	}
	reused := New(steps[0].cfg)
	for k, st := range steps {
		if k > 0 {
			reused.Reset(st.cfg)
		}
		for i, v := range reused.lines[:cap(reused.lines)] {
			if v != 0 {
				t.Fatalf("%s: after Reset, line slot %d holds %#x", st.name, i, v)
			}
		}
		for i, v := range reused.age[:cap(reused.age)] {
			if v != 0 {
				t.Fatalf("%s: after Reset, age slot %d holds %d", st.name, i, v)
			}
		}
		fresh := New(st.cfg)
		for i, a := range st.addrs {
			if i == len(st.addrs)/2 && st.between != nil {
				st.between(reused)
				st.between(fresh)
			}
			if got, want := reused.Access(a), fresh.Access(a); got != want {
				t.Fatalf("%s: %+v access %d (%#x): Reset cache hit=%v, New cache hit=%v", st.name, st.cfg, i, a, got, want)
			}
		}
		if reused.Stats() != fresh.Stats() || reused.Resident() != fresh.Resident() {
			t.Fatalf("%s: Reset cache %+v (%d resident), New cache %+v (%d resident)",
				st.name, reused.Stats(), reused.Resident(), fresh.Stats(), fresh.Resident())
		}
		list := listed
		switch {
		case reused.fillMax == 0:
			list = unlisted
		case len(reused.filled) >= reused.fillMax:
			list = overflowed
		}
		if list != st.list {
			t.Fatalf("%s: fill list state %d (%d of %d slots), want %d", st.name, list, len(reused.filled), reused.fillMax, st.list)
		}
	}
}

// sink keeps the caches the allocation pins build on the heap.
var sink *Cache

// TestResetAllocationFree pins what building and resetting a cache
// allocates: New only the Cache and its arrays (lines, and ages when
// set-associative), no fill list; the first Reset of a used cache only
// its fill list; and every later Reset into arrays with the room
// nothing, whether the run before it kept its list or overflowed it.
func TestResetAllocationFree(t *testing.T) {
	dm := Config{SizeBytes: 64 << 10, LineBytes: 16}
	sa := Config{SizeBytes: 64 << 10, LineBytes: 16, Assoc: 4}
	for _, tc := range []struct {
		cfg  Config
		want float64
	}{{dm, 2}, {sa, 3}} {
		if n := testing.AllocsPerRun(20, func() { sink = New(tc.cfg) }); n != tc.want {
			t.Errorf("New(%+v) allocates %.1f objects, want %.0f", tc.cfg, n, tc.want)
		}
	}
	reset := testing.AllocsPerRun(20, func() {
		c := New(sa)
		c.Access(0x40)
		c.Reset(sa)
		sink = c
	})
	if reset != 4 {
		t.Errorf("New, one access and Reset allocate %.1f objects, want 4 (New's 3 and a fill list)", reset)
	}
	c := New(sa)
	short, long := make([]uint64, 100), make([]uint64, 8_000)
	for i := range long {
		long[i] = uint64(i) * 16
	}
	copy(short, long)
	n := testing.AllocsPerRun(20, func() {
		for _, addrs := range [][]uint64{short, long} {
			for _, cfg := range []Config{sa, dm} {
				c.Reset(cfg)
				for _, a := range addrs {
					c.Access(a)
				}
			}
		}
	})
	if n != 0 {
		t.Errorf("Resets into arrays with the room allocate %.1f objects, want 0", n)
	}
}

func TestNewPanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with bad config did not panic")
		}
	}()
	New(Config{SizeBytes: 1000, LineBytes: 16})
}

func BenchmarkDirectMappedAccess(b *testing.B) {
	c := New(Config{SizeBytes: 16 << 10, LineBytes: 32})
	r := rng.New(1)
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = r.Uint64() & 0x7FFFF
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addrs[i&4095])
	}
}

func Benchmark4WayAccess(b *testing.B) {
	c := New(Config{SizeBytes: 16 << 10, LineBytes: 32, Assoc: 4})
	r := rng.New(1)
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = r.Uint64() & 0x7FFFF
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addrs[i&4095])
	}
}
