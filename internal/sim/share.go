package sim

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

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
// verified replay. A follower whose replay diverges resumes from the
// recording's last checkpoint before the divergence (Rerecord) and becomes
// the group's new recording. DESIGN.md §8 states the invariant and the
// reason for each eligibility rule.

// ErrL2LogRefused reports a ReplayL2 whose log cannot serve the
// configuration: the log was recorded under another share key or at a
// larger L1, its recording failed, the configuration may not share at
// all, or, for a verified log, the follower's walks leave the recorder's
// (a *DivergedError, which wraps it). The caller runs the full engine
// instead: a sweep worker records that run (Rerecord), so the larger L1s
// after a refused follower replay from it.
var ErrL2LogRefused = errors.New("sim: L2 log does not serve this configuration")

// DivergedError is ReplayL2's refusal of a follower of a verified log —
// one recorded by a machine whose walks run on user L2 misses (notlb,
// spur) — at the first marked access whose outcome in the follower's
// caches differs from the recorder's: from that access on the follower
// would walk where the recorder did not, or not walk where it did, so
// its access stream leaves the log. It wraps ErrL2LogRefused. The log
// holds the error ReplayL2 returns, so that a divergence allocates
// nothing; the log's next divergence overwrites it.
type DivergedError struct {
	// Level is the cache level, 1 or 2, whose outcome differed, and
	// Access the index of that access in the stream the follower sent
	// through its L1s: the recording, or the L1-miss stream of a smaller
	// L1 derived from it.
	Level, Access int
	// From is the trace index of the recording's last checkpoint before
	// the diverged access. Up to there the follower's run is the
	// recorder's, and Rerecord resumes it there.
	From int
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

// checkpointRefs is the spacing, in references, of a verified
// recording's checkpoints: a diverged follower resumes from the last one
// before its divergence.
const checkpointRefs = 4096

// access is one access the engine sent past an L1 hit: the address, the
// components a miss charges at each level (atL1, atL2), the side
// (instruction or data; one cache serves both under UnifiedCaches), and,
// in a verified log, its mark and its segment, the index of the last
// checkpoint before the reference that made it. It is 16 bytes.
type access struct {
	addr  uint64
	comp  [2]uint8
	dside bool
	mark  uint8
	seg   uint32
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
// window's misses at the level per component.
type stream struct {
	acc    []access
	live   int
	misses [stats.NumComponents]uint64
}

// pass sends s, a stream with no marked access, through the caches
// (instruction side, data side; the same cache when unified) and returns
// the measured window's misses per component charged at lvl. When out is
// non-nil it also receives the accesses that missed, as the stream the
// next level sees; out may be s itself, since a filter writes at or below
// the index it reads. The loop checks no access: TLB-refilled followers
// are most of a sweep's points. Cancellation is polled as RunContext
// polls it.
func (s *stream) pass(ctx context.Context, il, dl *cache.Cache, lvl int, out *stream) ([stats.NumComponents]uint64, error) {
	var misses [stats.NumComponents]uint64
	acc, live := s.acc, s.live
	if out != nil {
		out.acc, out.live = out.acc[:0], 0
	}
	done := ctx.Done()
	for i := range acc {
		if done != nil && i%cancelCheckRefs == 0 && ctx.Err() != nil {
			return misses, errReplayCancelled(ctx, i)
		}
		a := &acc[i]
		c := il
		if a.dside {
			c = dl
		}
		if c.Access(a.addr) {
			continue
		}
		if i >= live {
			misses[a.comp[lvl]]++
		}
		if out != nil {
			if i < live {
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

// passVerified sends a verified stream through a follower's L1s (il1,
// dl1) and each access that misses there at once through its L2s (il2,
// dl2), holding each marked access to the recorder's outcome: one that
// missed the recorder's L2 must miss the follower's L1, and one that
// reaches the follower's L2 must get the recorder's answer there. The
// first that does not stops the pass with a *DivergedError; since both
// levels are checked in the run's order, it is the first divergence of
// the run. Up to that access the follower's access stream is the
// recorder's, so its caches' state, and so each outcome checked, is
// exact. It returns the measured window's misses at each level, and out
// (which may be s itself) receives the L1 misses. A divergence is written
// to div, which the pass returns as its error.
func (s *stream) passVerified(ctx context.Context, il1, dl1, il2, dl2 *cache.Cache, out *stream, div *DivergedError) (l1, l2 [stats.NumComponents]uint64, err error) {
	acc, live := s.acc, s.live
	out.acc, out.live = out.acc[:0], 0
	done := ctx.Done()
	for i := range acc {
		if done != nil && i%cancelCheckRefs == 0 && ctx.Err() != nil {
			return l1, l2, errReplayCancelled(ctx, i)
		}
		a := &acc[i]
		c1, c2 := il1, il2
		if a.dside {
			c1, c2 = dl1, dl2
		}
		if c1.Access(a.addr) {
			if a.mark == markL2Miss {
				*div = DivergedError{Level: 1, Access: i, From: int(a.seg) * checkpointRefs}
				return l1, l2, div
			}
			continue
		}
		hit := c2.Access(a.addr)
		if hit && a.mark == markL2Miss || !hit && a.mark == markL2Hit {
			*div = DivergedError{Level: 2, Access: i, From: int(a.seg) * checkpointRefs}
			return l1, l2, div
		}
		if i < live {
			out.live++
		} else {
			l1[a.comp[atL1]]++
			if !hit {
				l2[a.comp[atL2]]++
			}
		}
		out.acc = append(out.acc, *a)
	}
	out.misses = l1
	return l1, l2, nil
}

// errReplayCancelled is a replay's cancellation at access i.
func errReplayCancelled(ctx context.Context, i int) error {
	return fmt.Errorf("sim: cache replay cancelled at access %d: %w: %w",
		i, simerr.ErrCancelled, context.Cause(ctx))
}

// missCharged returns c with the events and cycles of l1 L1 misses and
// l2 L2 misses per component added, or, with remove set, taken out.
func missCharged(c stats.Counters, l1, l2 *[stats.NumComponents]uint64, remove bool) stats.Counters {
	for i := range l1 {
		ev, cy := l1[i]+l2[i], l1[i]*stats.L1MissPenalty+l2[i]*stats.L2MissPenalty
		if remove {
			ev, cy = -ev, -cy // unsigned: adding the negation subtracts
		}
		c.Events[i] += ev
		c.Cycles[i] += cy
	}
	return c
}

// L2Log is a sweep worker's simulation state: one engine's worth of
// cache arrays (and one more per further core of a cluster), and the
// L1-miss stream of one recorded run together with the rest of its
// Result, which configurations sharing its key have in common. The zero
// value is an empty log with no arrays. SimulateRecord refills it,
// SimulateIn runs a full engine or cluster in its arrays and ReplayL2
// replays from it, each resetting the arrays for its own geometry and
// reusing the log's buffers, so one log per sweep worker serves every
// point of the sweep, and a log kept across sweeps and runs (TakeLog,
// PutLog) serves the next ones without growing again. The log of a
// machine that walks on user L2 misses is verified: it marks each access
// whose L2 outcome steered the run, ReplayL2 holds its followers to those
// outcomes, and it keeps a checkpoint every checkpointRefs references,
// from which Rerecord resumes a diverged follower.
type L2Log struct {
	key Config
	ok  bool
	// verified is set on the log of a machine that walks on user L2
	// misses, whose accesses are marked.
	verified bool
	// rec is the recorder's L1-miss stream and l1Size its L1 size; its
	// misses are the recorder's measured-window L1 misses, recL2 its
	// measured-window L2 misses.
	rec    stream
	l1Size int
	recL2  [stats.NumComponents]uint64
	// base is the recorder's final counters without its measured-window
	// L1- and L2-miss charges. cps holds a verified recording's
	// checkpoints: cps[s] is its counters before reference
	// s*checkpointRefs, likewise without the charges of its measured-window
	// L1 and L2 misses so far.
	base     stats.Counters
	cps      []stats.Counters
	chain    float64
	workload string
	// from is the reference the recording's engine run started at: 0, or
	// the checkpoint a resumed follower's run started at. div is the
	// error of the log's last divergence.
	from int
	div  DivergedError

	// l1s is the L1-miss stream at L1 size l1At (0: none yet), derived
	// through the L1s of cs from rec or, in place, from the kept stream of
	// a smaller L1. l2s is the L2-miss stream of the direct-mapped L2 l2At
	// names (zero: none), behind the L1 of that size; followers' L2s
	// replay in the L2s of cs.
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

// idleLogs keeps logs, with their cache arrays and stream buffers, from
// one use to the next: a sweep worker takes one when it starts and puts
// it back when it exits, and Simulate takes one for each run, so repeated
// sweeps and runs (a campaign's traces, a server's jobs, a program's
// checks) reuse arrays that already have the room instead of growing new
// ones beside the kept ones. The list keeps its logs for the life of the
// process: at most as many as the most workers and runs that ever ran at
// once, each the size of the largest geometry it ran. A sync.Pool, whose
// per-processor slots a worker started on another processor cannot
// reach, and a list emptied at each garbage collection both had workers
// grow new logs beside dropped or stranded ones, which raised the peak
// resident set more (PERFORMANCE.md).
var idleLogs struct {
	sync.Mutex
	logs []*L2Log
}

// TakeLog returns the most recently idle log, with its recording
// forgotten (it may have been made on another trace), or a new one.
func TakeLog() *L2Log {
	idleLogs.Lock()
	defer idleLogs.Unlock()
	n := len(idleLogs.logs)
	if n == 0 {
		return new(L2Log)
	}
	log := idleLogs.logs[n-1]
	idleLogs.logs = idleLogs.logs[:n-1]
	log.ok = false
	return log
}

// PutLog makes log idle; the caller must not use it afterwards.
func PutLog(log *L2Log) {
	idleLogs.Lock()
	idleLogs.logs = append(idleLogs.logs, log)
	idleLogs.Unlock()
}

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
// verified log every access carries its segment, and every access but a
// handler fetch (l1c HandlerL2) is marked with its L2 outcome. It stays
// out of line: inlined, its append would grow runPhase's loop, which
// every unshared run pays for.
//
//go:noinline
func (l *L2Log) add(a uint64, l1c, l2c stats.Component, dside bool, lvl cache.Level, live bool) {
	if lvl == cache.L1Hit {
		return
	}
	acc := access{addr: a, comp: [2]uint8{uint8(l1c), uint8(l2c)}, dside: dside}
	if l.verified {
		acc.seg = uint32(len(l.cps) - 1)
		if l1c != stats.HandlerL2 {
			acc.mark = markL2Hit
			if lvl == cache.Memory {
				acc.mark = markL2Miss
			}
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

// recordSpan is Engine.span for the engine e recording a verified log:
// it replays refs, trace indices pos onward, through runPhase in pieces
// that end at every checkpoint, and takes the checkpoint there, from the
// recorder's counters so far. Where a piece ends changes no counter.
func (l *L2Log) recordSpan(e *Engine, refs []trace.Ref, pos int) {
	for len(refs) > 0 {
		if pos%checkpointRefs == 0 {
			l.cps = append(l.cps, missCharged(e.c, &l.rec.misses, &l.recL2, true))
		}
		n := min(len(refs), checkpointRefs-pos%checkpointRefs)
		e.runPhase(refs[:n])
		refs, pos = refs[n:], pos+n
	}
}

// Resumed returns the trace index at which the engine run of the log's
// recording started: 0 for SimulateRecord, the divergence's checkpoint
// for a follower Rerecord resumed.
func (l *L2Log) Resumed() int { return l.from }

// SimulateRecord is SimulateContext for a configuration ShareKey accepts:
// it returns exactly SimulateContext's Result and also records into log
// every access the run sent past an L1 — marked, for a machine that walks
// on user L2 misses, with the L2 outcomes that steered its walks. The log
// serves ReplayL2 only after a successful return; after a failure
// ReplayL2 refuses it.
func SimulateRecord(ctx context.Context, cfg Config, tr *trace.Trace, log *L2Log) (*Result, error) {
	*log = L2Log{
		rec:   stream{acc: log.rec.acc[:0]},
		cps:   log.cps[:0],
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
	log.verified = e.noTLBRefill
	e.l2log = log
	res, err := e.RunContext(ctx, tr)
	if err != nil {
		return nil, err
	}
	log.keep(key, cfg, res)
	return res, nil
}

// keep makes the log serve ReplayL2 as the recording of cfg, whose share
// key is key and whose run returned res.
func (l *L2Log) keep(key, cfg Config, res *Result) {
	l.key, l.ok, l.l1Size = key, true, cfg.L1SizeBytes
	l.base = missCharged(res.Counters, &l.rec.misses, &l.recL2, true)
	l.chain, l.workload = res.AvgChainLength, res.Workload
}

// Rerecord runs cfg, a follower that ReplayL2 refused with refusal, in
// full and records the run into log as SimulateRecord does, so that the
// larger L1s after it replay from it. A follower refused as diverged (the
// *DivergedError ReplayL2 returned) does not start over: its run is the
// recorder's up to the divergence's checkpoint (From), and the engine of
// a verified recording holds nothing but its caches and counters, so
// Rerecord rebuilds those from the recorded accesses before the
// checkpoint and runs the engine from there on (DESIGN.md §8, part 6).
// Any other refusal records from reference 0. tr must be the trace the
// log was recorded from. The Result equals SimulateContext's
// (reflect.DeepEqual).
func Rerecord(ctx context.Context, cfg Config, tr *trace.Trace, log *L2Log, refusal error) (*Result, error) {
	div, ok := refusal.(*DivergedError)
	if !ok || !log.verified || !log.serves(cfg) || div.From >= len(tr.Refs) || div.From/checkpointRefs >= len(log.cps) {
		return SimulateRecord(ctx, cfg, tr, log)
	}
	return log.resume(ctx, cfg, tr, div.From)
}

// resume is Rerecord for a follower of the log's verified recording whose
// run is the recorder's up to reference from, a checkpoint. It builds the
// follower's engine in the log's arrays, sends the accesses recorded
// before from through its L1s and their misses through its L2s, which
// rebuilds its caches, keeps those misses in place as the start of its
// own recording and counts their charges, seeds its counters with the
// checkpoint's plus those charges, and runs the engine from reference
// from on, recording. The replay checks each marked access as ReplayL2
// does; a divergence before from means refusal was not the divergence of
// cfg on this recording, and fails the run.
func (l *L2Log) resume(ctx context.Context, cfg Config, tr *trace.Trace, from int) (*Result, error) {
	e, err := newEngine(cfg, &l.cs)
	if err != nil {
		return nil, err
	}
	s := from / checkpointRefs
	cp := l.cps[s]
	n := sort.Search(len(l.rec.acc), func(i int) bool { return int(l.rec.acc[i].seg) >= s })
	prefix := stream{acc: l.rec.acc[:n], live: min(l.rec.live, n)}
	l.ok, l.cps, l.l1At, l.l2At = false, l.cps[:s], 0, l2Tag{}
	_, l.recL2, err = prefix.passVerified(ctx, e.icache.L1(), e.dcache.L1(), e.icache.L2(), e.dcache.L2(), &l.rec, &l.div)
	if errors.Is(err, ErrL2LogRefused) {
		// Formatted, not wrapped: the log's next divergence reuses l.div.
		return nil, fmt.Errorf("sim: %s: resume at reference %d: %v", cfg.Label(), from, err)
	} else if err != nil {
		return nil, err
	}
	e.c = missCharged(cp, &l.rec.misses, &l.recL2, false)
	if from > 0 {
		e.curASID = tr.Refs[from-1].ASID
	}
	e.l2log, l.from = l, from
	res, err := e.runFrom(ctx, tr, from)
	if err != nil {
		return nil, err
	}
	l.keep(l.key, cfg, res)
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
// (direct-mapped) L1 sees only the L1 misses of the next smaller L1
// replayed, and a direct-mapped L2 of a TLB-refilled machine only the
// misses of the smallest L2 of its line already replayed behind the same
// L1; by inclusion the accesses left out hit and change no state. A
// verified log's follower sends its whole L1-miss stream to its L2s and
// is refused with a *DivergedError at its first marked access whose
// outcome differs from the recorder's. The Result equals
// SimulateContext's (reflect.DeepEqual). A log that cannot serve cfg is
// refused with ErrL2LogRefused. The recording run validated every field
// cfg shares with it, so cfg's own validation is its cache geometry's:
// an invalid one fails exactly as Simulate fails. Calls on one log must
// not overlap. Cancellation is polled as RunContext polls it.
func ReplayL2(ctx context.Context, cfg Config, log *L2Log) (*Result, error) {
	if !log.serves(cfg) {
		return nil, fmt.Errorf("sim: %s: %w", cfg.Label(), ErrL2LogRefused)
	}
	if err := classifyInvalid(cfg.validateCaches()); err != nil {
		return nil, err
	}
	replay := log.replay
	if log.verified {
		replay = log.follow
	}
	l1, l2, err := replay(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return &Result{Config: cfg, Workload: log.workload, Counters: missCharged(log.base, &l1, &l2, false), AvgChainLength: log.chain}, nil
}

// serves reports whether the log holds a recording cfg may replay: one
// made under cfg's share key at an L1 no larger than cfg's.
func (l *L2Log) serves(cfg Config) bool {
	key, ok := cfg.shareKey(l.verified)
	return l.ok && ok && key == l.key && cfg.L1SizeBytes >= l.l1Size
}

// sides resets the level-lvl caches of the log's hierarchies for cfg's
// geometry, one cache when unified, and returns the instruction and data
// sides.
func (l *L2Log) sides(lvl int, cfg Config) (il, dl *cache.Cache) {
	level := (*cache.Hierarchy).L1
	if lvl == atL2 {
		level = (*cache.Hierarchy).L2
	}
	il, dl = level(&l.cs[0]), level(&l.cs[0])
	il.Reset(cfg.geometry(lvl))
	if !cfg.UnifiedCaches {
		dl = level(&l.cs[1])
		dl.Reset(cfg.geometry(lvl))
	}
	return il, dl
}

// l1Source returns the stream a follower's L1 step filters: the kept
// L1-miss stream when it was derived at an L1 no larger than cfg's, which
// by inclusion holds every access cfg's L1 misses, and otherwise the
// recording.
func (l *L2Log) l1Source(cfg Config) *stream {
	if l.l1At != 0 && l.l1At <= cfg.L1SizeBytes {
		return &l.l1s
	}
	return &l.rec
}

// replay is ReplayL2 for a log with no marked access: the L1 step, then
// the L2 step. It returns the measured window's misses at each level.
func (l *L2Log) replay(ctx context.Context, cfg Config) (l1, l2 [stats.NumComponents]uint64, err error) {
	s, err := l.l1Stream(ctx, cfg)
	if err != nil {
		return l1, l2, err
	}
	l2, err = l.l2Misses(ctx, cfg, s)
	return s.misses, l2, err
}

// follow is ReplayL2 for a verified log: one pass (passVerified) sends
// the follower's L1 source through its L1s and their misses through its
// L2s, and keeps its L1-miss stream for the larger L1s after it.
func (l *L2Log) follow(ctx context.Context, cfg Config) (l1, l2 [stats.NumComponents]uint64, err error) {
	src := l.l1Source(cfg)
	l.l1At = 0
	il1, dl1 := l.sides(atL1, cfg)
	il2, dl2 := l.sides(atL2, cfg)
	if l1, l2, err = src.passVerified(ctx, il1, dl1, il2, dl2, &l.l1s, &l.div); err == nil {
		l.l1At = cfg.L1SizeBytes
	}
	return l1, l2, err
}

// l1Stream returns the L1-miss stream at cfg's L1 size: the recorded one,
// or the one it leaves through a direct-mapped L1 of that size, derived
// once per size from the stream l1Source names. A failed or cancelled
// derivation leaves no kept stream, so the next one starts from the
// recording.
func (l *L2Log) l1Stream(ctx context.Context, cfg Config) (*stream, error) {
	if cfg.L1SizeBytes == l.l1Size {
		return &l.rec, nil
	}
	if l.l1At != cfg.L1SizeBytes {
		src := l.l1Source(cfg)
		l.l1At = 0
		il, dl := l.sides(atL1, cfg)
		if _, err := src.pass(ctx, il, dl, atL1, &l.l1s); err != nil {
			return nil, err
		}
		l.l1At = cfg.L1SizeBytes
	}
	return &l.l1s, nil
}

// l2Misses replays l1, the L1-miss stream at cfg's L1 size, through L2s
// of cfg's geometry and returns their measured-window misses. A
// direct-mapped L2 replays the kept L2-miss stream when one of its line
// and no larger size exists behind the same L1, and otherwise keeps its
// own misses for the larger ones after it.
func (l *L2Log) l2Misses(ctx context.Context, cfg Config, l1 *stream) ([stats.NumComponents]uint64, error) {
	il, dl := l.sides(atL2, cfg)
	if cfg.L2Assoc > 1 {
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
