package sim

import (
	"cmp"
	"context"
	"errors"
	"fmt"

	"repro/internal/cache"
	"repro/internal/machine"
	"repro/internal/simerr"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Sweeps over cache geometry share L1 stages: for a TLB-refilled
// organization nothing outside the caches depends on a cache outcome, the
// L2 sees exactly the L1 misses, and direct-mapped caches of one line size
// obey inclusion, so one recording run (SimulateRecord) at a group's
// smallest L1 serves every sibling cache geometry through a replay of its
// L1-miss stream (ReplayL2). An organization that walks on user L2 misses
// shares only across L1 sizes, and only while the follower's caches answer
// every access that steered the recorder's walks as the recorder's did: a
// verified replay. DESIGN.md §8 states the invariant and the reason for
// each eligibility rule.

// ErrL2LogRefused reports a ReplayL2 whose log cannot serve the
// configuration: the log was recorded under another share key or at a
// larger L1, its recording failed, the configuration may not share at
// all, or, for a verified log, the follower's walks leave the recorder's
// (a *DivergedError, which wraps it). The caller runs the full engine
// instead: a sweep worker records that run, so the larger L1s after a
// diverged follower replay from it.
var ErrL2LogRefused = errors.New("sim: L2 log does not serve this configuration")

// DivergedError is ReplayL2's refusal of a follower of a verified log —
// one recorded by a machine whose walks run on user L2 misses (notlb,
// spur) — at the first marked access whose outcome in the follower's
// caches differs from the recorder's: from that access on the follower
// would walk where the recorder did not, or not walk where it did, so
// its access stream leaves the log. It wraps ErrL2LogRefused.
type DivergedError struct {
	// Level is the cache level, 1 or 2, whose outcome differed, and
	// Access the index of that access in the stream the level replayed:
	// the recorded L1-miss stream at level 1, the follower's own at 2.
	Level, Access int
}

func (e *DivergedError) Error() string {
	return fmt.Sprintf("sim: L%d outcome of access %d differs from the recording's: %v",
		e.Level, e.Access, ErrL2LogRefused)
}

// Unwrap makes a divergence a refusal.
func (e *DivergedError) Unwrap() error { return ErrL2LogRefused }

// ShareKey returns the key under which cfg's run may share its L1 stage.
// Configurations with equal keys send identical traffic to their L1s, or,
// for an organization whose refill runs on user L2 misses (notlb, spur),
// do so up to their first walk that differs. For a TLB-refilled machine
// the key is cfg with the L2 geometry (L2SizeBytes, L2LineBytes, L2Assoc)
// cleared, and L1SizeBytes too when the L1 is direct-mapped. For notlb and
// spur, whose walks follow L2 outcomes, only L1SizeBytes is cleared, and
// only a direct-mapped L1 may share: the L2 geometry stays in the key, and
// ReplayL2 verifies each follower's walk triggers against the recording.
// ok is false when cfg may not share at all: a multicore cluster, an
// attached OS kernel, timeline sampling, invariant checking, a
// set-associative L1 on notlb or spur, or a machine that does not
// resolve.
func ShareKey(cfg Config) (key Config, ok bool) {
	spec, err := cfg.resolveMachine()
	if err != nil {
		return Config{}, false
	}
	return cfg.shareKey(spec.Refill.Trigger == machine.TriggerCacheMiss)
}

// shareKey is ShareKey for a configuration whose machine is known to walk
// (or not) on user L2 misses — the engine knows it once assembled, which
// spares the recorder a second machine lookup.
func (c Config) shareKey(walksOnL2Miss bool) (Config, bool) {
	if c.Cores > 1 || c.needsKernel() || c.SampleEvery != 0 || c.CheckInvariants {
		return Config{}, false
	}
	if !walksOnL2Miss {
		return c.withoutSizes(), true
	}
	if c.L1Assoc > 1 {
		return Config{}, false
	}
	c.L1SizeBytes = 0
	return c, true
}

// withoutSizes returns c with the cache fields a share group may vary
// cleared: the L2 geometry, and the L1 size when inclusion holds for it.
// A set-associative L1 updates its LRU state on a hit, so a larger one is
// not a filter of a smaller one's misses and keeps its size.
func (c Config) withoutSizes() Config {
	c.L2SizeBytes, c.L2LineBytes, c.L2Assoc = 0, 0, 0
	if c.L1Assoc <= 1 {
		c.L1SizeBytes = 0
	}
	return c
}

// CompareShared orders the points of one share group (equal ShareKey)
// so that each can replay from the streams of those before it: the
// smallest L1 first, which records, and within one L1 size by L2 line,
// each line's L2s smallest first, whose misses serve the larger
// direct-mapped ones. It returns a negative number when a should run
// before b, a positive one when after, and zero when either order serves.
func CompareShared(a, b Config) int {
	return cmp.Or(
		cmp.Compare(a.L1SizeBytes, b.L1SizeBytes),
		cmp.Compare(a.L2LineBytes, b.L2LineBytes),
		cmp.Compare(a.L2SizeBytes, b.L2SizeBytes),
	)
}

// Cache levels, indexing access.comp.
const (
	atL1 = iota
	atL2
)

// access is one access the engine sent past an L1 hit: the address, the
// components a miss charges at each level (atL1, atL2), the side
// (instruction or data; one cache serves both under UnifiedCaches), and,
// in a verified log, its mark. It is 16 bytes.
type access struct {
	addr  uint64
	comp  [2]uint8
	dside bool
	mark  uint8
}

// Marks of a verified log's accesses: the recorder's L2 outcome of an
// access whose outcome steered its control flow (a user fetch or
// load/store, whose L2 miss starts a walk, or a PTE load, whose L2 miss
// starts the root walk). Handler fetches and every access of a
// TLB-refilled machine's log are unmarked.
const (
	unmarked uint8 = iota
	markL2Hit
	markL2Miss
)

// stream is an access stream that one cache level let through: its
// accesses, the index of the first one in the measured window, and that
// window's misses at the level per component. verified is set on a
// verified log's streams, which hold marked accesses.
type stream struct {
	acc      []access
	live     int
	misses   [stats.NumComponents]uint64
	verified bool
}

// pass sends s through the caches (instruction side, data side; the same
// cache when unified) and returns the measured window's misses per
// component charged at lvl. When out is non-nil it also receives the
// accesses that missed, as the stream the next level sees. A verified
// stream's marked accesses are held to the recording (passVerified); any
// other stream replays through a loop that checks no access, since
// TLB-refilled followers are most of a sweep's points. Cancellation is
// polled as RunContext polls it.
func (s *stream) pass(ctx context.Context, il, dl *cache.Cache, lvl int, out *stream) ([stats.NumComponents]uint64, error) {
	if s.verified {
		return s.passVerified(ctx, il, dl, lvl, out)
	}
	var misses [stats.NumComponents]uint64
	if out != nil {
		out.acc, out.live, out.verified = out.acc[:0], 0, false
	}
	done := ctx.Done()
	for i := range s.acc {
		if done != nil && i%cancelCheckRefs == 0 && ctx.Err() != nil {
			return misses, fmt.Errorf("sim: cache replay cancelled at access %d: %w: %w",
				i, simerr.ErrCancelled, context.Cause(ctx))
		}
		a := &s.acc[i]
		c := il
		if a.dside {
			c = dl
		}
		if c.Access(a.addr) {
			continue
		}
		if i >= s.live {
			misses[a.comp[lvl]]++
		}
		if out != nil {
			if i < s.live {
				out.live++
			}
			out.acc = append(out.acc, *a)
		}
	}
	if out != nil {
		out.misses = misses
	}
	return misses, nil
}

// passVerified is pass for a verified stream, which also holds each
// marked access to the recorder's outcome. At the L1 step an access that
// missed the recorder's L2 must miss the follower's larger L1; at the L2
// step an access must get the recorder's L2 answer. The first that does
// not stops the pass with a *DivergedError. Up to that access the
// follower's access stream is the recorder's, so its caches' state, and
// so each outcome checked, is exact.
func (s *stream) passVerified(ctx context.Context, il, dl *cache.Cache, lvl int, out *stream) ([stats.NumComponents]uint64, error) {
	var misses [stats.NumComponents]uint64
	if out != nil {
		out.acc, out.live, out.verified = out.acc[:0], 0, true
	}
	done := ctx.Done()
	for i := range s.acc {
		if done != nil && i%cancelCheckRefs == 0 && ctx.Err() != nil {
			return misses, fmt.Errorf("sim: cache replay cancelled at access %d: %w: %w",
				i, simerr.ErrCancelled, context.Cause(ctx))
		}
		a := &s.acc[i]
		c := il
		if a.dside {
			c = dl
		}
		hit := c.Access(a.addr)
		if hit && a.mark == markL2Miss || !hit && lvl == atL2 && a.mark == markL2Hit {
			return misses, &DivergedError{Level: lvl + 1, Access: i}
		}
		if hit {
			continue
		}
		if i >= s.live {
			misses[a.comp[lvl]]++
		}
		if out != nil {
			if i < s.live {
				out.live++
			}
			out.acc = append(out.acc, *a)
		}
	}
	if out != nil {
		out.misses = misses
	}
	return misses, nil
}

// L2Log is a sweep worker's simulation state: one engine's worth of
// cache arrays (and one more per further core of a cluster), and the
// L1-miss stream of one recorded run together with the rest of its
// Result, which configurations sharing its key have in common. The zero
// value is an empty log with no arrays. SimulateRecord refills it,
// SimulateIn runs a full engine or cluster in its arrays and ReplayL2
// replays from it, each resetting the arrays for its own geometry and
// reusing the log's buffers, so one log per sweep worker serves every
// point of the sweep, and a log kept across sweeps (Forget) serves the
// next sweep's points without growing again. The log of a machine that
// walks on user L2 misses is verified: it marks each access whose L2
// outcome steered the run, and ReplayL2 holds its followers to those
// outcomes.
type L2Log struct {
	key Config
	ok  bool
	// rec is the recorder's L1-miss stream and l1Size its L1 size; its
	// misses are the recorder's measured-window L1 misses, recL2 its
	// measured-window L2 misses.
	rec    stream
	l1Size int
	recL2  [stats.NumComponents]uint64
	// base is the recorder's final counters without its measured-window
	// L1- and L2-miss charges.
	base     stats.Counters
	chain    float64
	workload string

	// l1s is the L1-miss stream at L1 size l1At (0: none yet), derived
	// from rec through the L1s of cs. l2s is the L2-miss stream of the
	// direct-mapped L2 l2At names (zero: none), behind the L1 of that
	// size; followers' L2s replay in the L2s of cs.
	l1s  stream
	l1At int
	l2s  stream
	l2At l2Tag
	// cs holds the cache arrays every engine and replay on this log
	// builds in, and cores those of a cluster's cores after the first,
	// which builds in cs. A Reset clears only the lines the previous user
	// filled, so a warm log's points allocate no cache memory and clear
	// little.
	cs    caches
	cores []*caches
}

// Forget drops the log's recording, keeping its arrays and buffers:
// ReplayL2 refuses the log until the next successful SimulateRecord. A
// sweep worker forgets the recording of a log kept from an earlier sweep,
// which may have been made on another trace.
func (l *L2Log) Forget() { l.ok = false }

// coreCaches returns the arrays cluster core c builds in.
func (l *L2Log) coreCaches(c int) *caches {
	if c == 0 {
		return &l.cs
	}
	for len(l.cores) < c {
		l.cores = append(l.cores, new(caches))
	}
	return l.cores[c-1]
}

// l2Tag names a direct-mapped L2 behind an L1: the L1 size, the L2 line
// and the L2 size.
type l2Tag struct{ l1, line, size int }

// add logs one access that left an L1 (lvl is the hierarchy's answer;
// an L1 hit never reached the L2): its address, the components its L1
// and L2 misses charge, and its side. live is the engine's phase. In a
// verified log every access but a handler fetch (l1c HandlerL2) is
// marked with its L2 outcome. It stays out of line: inlined, its append
// would grow runPhase's loop, which every unshared run pays for.
//
//go:noinline
func (l *L2Log) add(a uint64, l1c, l2c stats.Component, dside bool, lvl cache.Level, live bool) {
	if lvl == cache.L1Hit {
		return
	}
	acc := access{addr: a, comp: [2]uint8{uint8(l1c), uint8(l2c)}, dside: dside}
	if l.rec.verified && l1c != stats.HandlerL2 {
		acc.mark = markL2Hit
		if lvl == cache.Memory {
			acc.mark = markL2Miss
		}
	}
	l.rec.acc = append(l.rec.acc, acc)
	if !live {
		l.rec.live = len(l.rec.acc)
		return
	}
	l.rec.misses[l1c]++
	if lvl == cache.Memory {
		l.recL2[l2c]++
	}
}

// SimulateRecord is SimulateContext for a configuration ShareKey accepts:
// it returns exactly SimulateContext's Result and also records into log
// every access the run sent past an L1 — marked, for a machine that walks
// on user L2 misses, with the L2 outcomes that steered its walks. The log
// serves ReplayL2 only after a successful return; after a failure
// ReplayL2 refuses it.
func SimulateRecord(ctx context.Context, cfg Config, tr *trace.Trace, log *L2Log) (*Result, error) {
	*log = L2Log{
		rec:   stream{acc: log.rec.acc[:0]},
		l1s:   stream{acc: log.l1s.acc[:0]},
		l2s:   stream{acc: log.l2s.acc[:0]},
		cs:    log.cs,
		cores: log.cores,
	}
	e, err := newEngine(cfg, &log.cs)
	if err != nil {
		return nil, err
	}
	key, ok := cfg.shareKey(e.noTLBRefill)
	if !ok {
		return nil, fmt.Errorf("sim: %s: %w", cfg.Label(), ErrL2LogRefused)
	}
	log.rec.verified = e.noTLBRefill
	e.l2log = log
	res, err := e.RunContext(ctx, tr)
	if err != nil {
		return nil, err
	}
	log.key, log.ok, log.l1Size = key, true, cfg.L1SizeBytes
	log.base = res.Counters
	for c, n := range log.rec.misses {
		log.base.Events[c] -= n + log.recL2[c]
		log.base.Cycles[c] -= n*stats.L1MissPenalty + log.recL2[c]*stats.L2MissPenalty
	}
	log.chain, log.workload = res.AvgChainLength, res.Workload
	return res, nil
}

// SimulateIn is SimulateContext for a configuration run in log's cache
// arrays: a single-core engine, or each core of a multicore cluster,
// resets them for its geometry instead of allocating its own, so that
// once they have the room a sweep worker's full-engine points allocate no
// cache memory. Calls on one log must not overlap.
func SimulateIn(ctx context.Context, cfg Config, tr *trace.Trace, log *L2Log) (*Result, error) {
	if cfg.Cores > 1 {
		m, err := newMulticore(cfg, log.coreCaches)
		if err != nil {
			return nil, err
		}
		return m.RunContext(ctx, tr)
	}
	e, err := newEngine(cfg, &log.cs)
	if err != nil {
		return nil, err
	}
	return e.RunContext(ctx, tr)
}

// ReplayL2 returns cfg's Result from a log recorded under cfg's share
// key at an L1 no larger than cfg's, by replaying the log through caches
// of cfg's geometry alone: the log's own, reset for it. A larger
// (direct-mapped) L1 sees only the recorded L1 misses, and a
// direct-mapped L2 of a TLB-refilled machine only the misses of the
// smallest L2 of its line already replayed behind the same L1; by
// inclusion the accesses left out hit and change no state. A verified
// log's follower replays its whole L1-miss stream at the L2 and is
// refused with a *DivergedError at its first marked access whose outcome
// differs from the recorder's. The Result equals SimulateContext's
// (reflect.DeepEqual). A log that cannot serve cfg is refused with
// ErrL2LogRefused. The recording run validated every field cfg shares
// with it, so cfg's own validation is its cache geometry's: an invalid
// one fails exactly as Simulate fails. Calls on one log must not
// overlap. Cancellation is polled as RunContext polls it.
func ReplayL2(ctx context.Context, cfg Config, log *L2Log) (*Result, error) {
	if key, ok := cfg.shareKey(log.rec.verified); !log.ok || !ok || key != log.key || cfg.L1SizeBytes < log.l1Size {
		return nil, fmt.Errorf("sim: %s: %w", cfg.Label(), ErrL2LogRefused)
	}
	if err := classifyInvalid(cfg.validateCaches()); err != nil {
		return nil, err
	}
	l1, err := log.l1Stream(ctx, cfg)
	if err != nil {
		return nil, err
	}
	l2misses, err := log.l2Misses(ctx, cfg, l1)
	if err != nil {
		return nil, err
	}
	c := log.base
	for comp, n := range l1.misses {
		c.Events[comp] += n + l2misses[comp]
		c.Cycles[comp] += n*stats.L1MissPenalty + l2misses[comp]*stats.L2MissPenalty
	}
	return &Result{Config: cfg, Workload: log.workload, Counters: c, AvgChainLength: log.chain}, nil
}

// sides resets the level-lvl caches of the log's hierarchies for geom,
// one cache when unified, and returns the instruction and data sides.
func (l *L2Log) sides(lvl int, geom cache.Config, unified bool) (il, dl *cache.Cache) {
	level := (*cache.Hierarchy).L1
	if lvl == atL2 {
		level = (*cache.Hierarchy).L2
	}
	il, dl = level(&l.cs[0]), level(&l.cs[0])
	il.Reset(geom)
	if !unified {
		dl = level(&l.cs[1])
		dl.Reset(geom)
	}
	return il, dl
}

// l1Stream returns the L1-miss stream at cfg's L1 size: the recorded one,
// or the one it leaves through a direct-mapped L1 of that size, derived
// once per size.
func (l *L2Log) l1Stream(ctx context.Context, cfg Config) (*stream, error) {
	if cfg.L1SizeBytes == l.l1Size {
		return &l.rec, nil
	}
	if l.l1At != cfg.L1SizeBytes {
		l.l1At = 0
		geom := cache.Config{SizeBytes: cfg.L1SizeBytes, LineBytes: cfg.L1LineBytes, Assoc: cfg.L1Assoc}
		il, dl := l.sides(atL1, geom, cfg.UnifiedCaches)
		if _, err := l.rec.pass(ctx, il, dl, atL1, &l.l1s); err != nil {
			return nil, err
		}
		l.l1At = cfg.L1SizeBytes
	}
	return &l.l1s, nil
}

// l2Misses replays l1, the L1-miss stream at cfg's L1 size, through L2s
// of cfg's geometry and returns their measured-window misses. A
// direct-mapped L2 of a TLB-refilled machine replays the kept L2-miss
// stream when one of its line and no larger size exists behind the same
// L1, and otherwise keeps its own misses for the larger ones after it. A
// verified stream always replays in full and keeps nothing: a kept
// L2-miss stream leaves out the L2 hits the check must see, and a
// verified log's followers share one L2 geometry, one per L1 size, so no
// later follower could use it.
func (l *L2Log) l2Misses(ctx context.Context, cfg Config, l1 *stream) ([stats.NumComponents]uint64, error) {
	geom := cache.Config{SizeBytes: cfg.L2SizeBytes, LineBytes: cfg.L2LineBytes, Assoc: cfg.L2Assoc}
	il, dl := l.sides(atL2, geom, cfg.UnifiedCaches)
	if cfg.L2Assoc > 1 || l1.verified {
		return l1.pass(ctx, il, dl, atL2, nil)
	}
	if at := l.l2At; at.l1 == cfg.L1SizeBytes && at.line == cfg.L2LineBytes && at.size <= cfg.L2SizeBytes {
		return l.l2s.pass(ctx, il, dl, atL2, nil)
	}
	l.l2At = l2Tag{}
	misses, err := l1.pass(ctx, il, dl, atL2, &l.l2s)
	if err == nil {
		l.l2At = l2Tag{cfg.L1SizeBytes, cfg.L2LineBytes, cfg.L2SizeBytes}
	}
	return misses, err
}
