package sim

import (
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
// organization nothing above the L2 depends on the L2's outcome, and the
// L2 sees exactly the L1 misses, so one recording run (SimulateRecord)
// serves every sibling L2 geometry through a replay of its L2-bound
// accesses (ReplayL2). DESIGN.md §8 states the invariant and the reason
// for each eligibility rule.

// ErrL2LogRefused reports a ReplayL2 whose log cannot serve the
// configuration: the log was recorded under another share key, its
// recording failed, or the configuration may not share at all. The
// caller runs the full engine instead.
var ErrL2LogRefused = errors.New("sim: L2 log does not serve this configuration")

// ShareKey returns the key under which cfg's run may share its L1 stage:
// cfg with the L2 geometry (L2SizeBytes, L2LineBytes, L2Assoc) cleared.
// Configurations with equal keys produce identical traffic above the L2.
// ok is false when cfg may not share at all: a multicore cluster, an
// attached OS kernel, timeline sampling, invariant checking, an
// organization whose refill runs on user L2 misses (notlb, spur — their
// walkers branch on an L2 outcome), or a machine that does not resolve.
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
	if walksOnL2Miss || c.Cores > 1 || c.needsKernel() || c.SampleEvery != 0 || c.CheckInvariants {
		return Config{}, false
	}
	return c.withoutL2(), true
}

// withoutL2 returns c with its L2 geometry cleared.
func (c Config) withoutL2() Config {
	c.L2SizeBytes, c.L2LineBytes, c.L2Assoc = 0, 0, 0
	return c
}

// l2Access is one access the engine sent to an L2: the address, the side
// (instruction or data; one L2 serves both under UnifiedCaches) and the
// component an L2 miss there charges.
type l2Access struct {
	addr  uint64
	comp  uint8
	dside bool
}

// L2Log is the L2-bound access stream of one recorded run together with
// the rest of its Result, which configurations sharing its key have in
// common. The zero value is an empty log; SimulateRecord refills it,
// reusing its buffer and its replay caches, so one log per sweep worker
// serves every group.
type L2Log struct {
	key      Config
	ok       bool
	accesses []l2Access
	// live is the index of the first access of the measured window.
	live int
	// misses counts the recorder's own measured-window L2 misses per
	// component; base is its final counters with those charges removed.
	misses   [stats.NumComponents]uint64
	base     stats.Counters
	chain    float64
	workload string
	// l2 holds the L2 caches replays run in (instruction side, data
	// side). Each replay resets them, reusing their arrays, so a warm
	// log's followers allocate no cache memory; the zero log holds none.
	l2 [2]cache.Cache
}

// add logs one access that left an L1 (lvl is the hierarchy's answer;
// an L1 hit never reached the L2). live is the engine's phase. It stays
// out of line: inlined, its append would grow runPhase's loop, which
// every unshared run pays for.
//
//go:noinline
func (l *L2Log) add(a uint64, comp stats.Component, dside bool, lvl cache.Level, live bool) {
	if lvl == cache.L1Hit {
		return
	}
	l.accesses = append(l.accesses, l2Access{addr: a, comp: uint8(comp), dside: dside})
	if !live {
		l.live = len(l.accesses)
	} else if lvl == cache.Memory {
		l.misses[comp]++
	}
}

// SimulateRecord is SimulateContext for a configuration ShareKey accepts:
// it returns exactly SimulateContext's Result and also records into log
// every access the run sent to an L2. The log serves ReplayL2 only after
// a successful return; after a failure ReplayL2 refuses it.
func SimulateRecord(ctx context.Context, cfg Config, tr *trace.Trace, log *L2Log) (*Result, error) {
	*log = L2Log{accesses: log.accesses[:0], l2: log.l2}
	e, err := NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	key, ok := cfg.shareKey(e.noTLBRefill)
	if !ok {
		return nil, fmt.Errorf("sim: %s: %w", cfg.Label(), ErrL2LogRefused)
	}
	e.l2log = log
	res, err := e.RunContext(ctx, tr)
	if err != nil {
		return nil, err
	}
	log.key, log.ok = key, true
	log.base = res.Counters
	for c, n := range log.misses {
		log.base.Events[c] -= n
		log.base.Cycles[c] -= n * stats.L2MissPenalty
	}
	log.chain, log.workload = res.AvgChainLength, res.Workload
	return res, nil
}

// ReplayL2 returns cfg's Result from a log recorded under cfg's share
// key by replaying the logged accesses through L2 caches of cfg's
// geometry alone: the log's own, reset for it. The Result equals
// SimulateContext's (reflect.DeepEqual). A log that cannot serve
// cfg is refused with ErrL2LogRefused. The recording run validated every
// field cfg shares with it, so cfg's own validation is its L2
// geometry's: an invalid one fails exactly as Simulate fails. Calls on
// one log must not overlap. Cancellation is polled as RunContext polls
// it.
func ReplayL2(ctx context.Context, cfg Config, log *L2Log) (*Result, error) {
	// log.key came from an accepted shareKey, whose rule reads no L2
	// field, so a match also makes cfg eligible.
	if !log.ok || cfg.withoutL2() != log.key {
		return nil, fmt.Errorf("sim: %s: %w", cfg.Label(), ErrL2LogRefused)
	}
	if err := classifyInvalid(cfg.validateL2()); err != nil {
		return nil, err
	}
	l2cfg := cache.Config{SizeBytes: cfg.L2SizeBytes, LineBytes: cfg.L2LineBytes, Assoc: cfg.L2Assoc}
	il2, dl2 := &log.l2[0], &log.l2[0]
	il2.Reset(l2cfg)
	if !cfg.UnifiedCaches {
		dl2 = &log.l2[1]
		dl2.Reset(l2cfg)
	}
	c := log.base
	done := ctx.Done()
	for i := range log.accesses {
		if done != nil && i%cancelCheckRefs == 0 && ctx.Err() != nil {
			return nil, fmt.Errorf("sim: L2 replay cancelled at access %d: %w: %w",
				i, simerr.ErrCancelled, context.Cause(ctx))
		}
		a := &log.accesses[i]
		l2 := il2
		if a.dside {
			l2 = dl2
		}
		if !l2.Access(a.addr) && i >= log.live {
			c.Charge(stats.Component(a.comp), stats.L2MissPenalty)
		}
	}
	return &Result{Config: cfg, Workload: log.workload, Counters: c, AvgChainLength: log.chain}, nil
}
