// Package sweep runs cross-products of simulation configurations over a
// shared trace, in parallel. The paper evaluates "a space equal to the
// effective cross-product" of Table 1's variables; this package provides
// the cross-product enumeration and the worker pool that makes those
// hundreds of runs tractable.
package sweep

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/journal"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/simerr"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Point is one sweep outcome.
type Point struct {
	Config sim.Config
	Result *sim.Result
	Err    error
	// Attempts is how many times this process simulated the point
	// (>1 after transient-failure retries; 0 for journal replays and
	// never-dispatched points).
	Attempts int
	// Resumed marks a point replayed from the journal instead of
	// simulated.
	Resumed bool
	// Duration is the wall-clock time this process spent on the point,
	// all attempts and backoff included (0 for journal replays and
	// never-dispatched points). Progress meters and end-of-run
	// manifests aggregate it per outcome category.
	Duration time.Duration
}

// Options configures a fault-tolerant sweep. The zero value reproduces
// the classic behaviour: GOMAXPROCS workers, no journal, no deadline,
// no retries.
type Options struct {
	// Workers is the parallel simulation count (<= 0 selects
	// GOMAXPROCS).
	Workers int

	// JournalDir, when non-empty, appends every completed point to the
	// crash-safe journal in that directory (see internal/journal).
	JournalDir string
	// Resume replays JournalDir before dispatching: points whose key
	// (trace identity + full configuration) already has an intact
	// journal record are restored bit-identically and not re-simulated.
	Resume bool

	// PointTimeout bounds each simulation attempt (0 = none). An
	// attempt that overruns is cancelled cooperatively and classified
	// as simerr.ErrPointTimeout.
	PointTimeout time.Duration
	// Retries is how many extra attempts a transiently-failing point
	// (timeout or internal panic — see simerr.Transient) gets before
	// being quarantined into its Err. Deterministic failures are never
	// retried.
	Retries int
	// Backoff is the first retry's delay; it doubles per attempt and is
	// capped at 30s. Zero retries immediately.
	Backoff time.Duration

	// PointHook, when non-nil, runs at the start of every attempt with
	// (attempt context, point index, attempt number); a non-nil return
	// fails the attempt. It exists for fault injection in tests (see
	// internal/faults) and for progress callbacks.
	PointHook func(ctx context.Context, index, attempt int) error

	// PointDone, when non-nil, runs once per finished point — simulated,
	// replayed from the journal, or quarantined with an error — with the
	// point exactly as it will appear in the returned slice. Points
	// never dispatched because the campaign was cancelled do not count
	// as finished. Called concurrently from worker goroutines; it must
	// be safe for concurrent use and should return quickly (it sits on
	// the sweep's critical path). This is the hook live progress
	// tracking hangs off (see internal/obs.Progress and
	// `vmsweep -progress`).
	PointDone func(index int, p Point)
}

// Run simulates every configuration over tr, using the given number of
// workers (0 selects GOMAXPROCS). The returned slice is index-aligned
// with cfgs. The trace is shared read-only across workers.
//
// Memory: a sweep holds one copy of the trace (shared by every worker)
// plus, per worker, one L2 log: one set of cache arrays per simulated
// core, sized by the largest geometry run in them (a 4 MB L2 of 16-byte
// lines is 2 MB per side), in which every engine, cluster core and
// replay of the worker builds its caches; the live engine's TLBs and
// page tables; at most three streams of 16 bytes per access that leaves
// an L1; and, for notlb and spur, a checkpoint of 344 bytes per 4,096
// references (DESIGN.md §8). Logs outlive the call in sim's list of idle
// logs (sim.TakeLog, sim.PutLog), so the next sweep's workers start with
// arrays that have the room: the process keeps one log per worker of its
// widest sweep so far, each holding the arrays of the largest geometry
// it ran (16 MB for a 16 MB L2 of 16-byte lines). Peak memory is
// O(trace + workers), not O(configurations). Results are two small
// structs per point.
func Run(tr *trace.Trace, cfgs []sim.Config, workers int) []Point {
	return RunContext(context.Background(), tr, cfgs, workers)
}

// RunContext is Run with cancellation: when ctx is cancelled, workers
// finish (or cooperatively abandon) the point they are on, undispatched
// points get an error wrapping simerr.ErrCancelled as their Err, and
// RunContext returns early. Points are still index-aligned with cfgs.
func RunContext(ctx context.Context, tr *trace.Trace, cfgs []sim.Config, workers int) []Point {
	points, _ := RunWithOptions(ctx, tr, cfgs, Options{Workers: workers})
	return points
}

// maxBackoff caps the exponential retry delay.
const maxBackoff = 30 * time.Second

// RunWithOptions is the fault-tolerant sweep driver. Points are
// index-aligned with cfgs; every failure in a Point.Err wraps one of
// the simerr sentinel classes. The returned error reports campaign-
// level infrastructure trouble only — an unreadable or unwritable
// journal — never a point failure: a failing point is quarantined into
// its slot and the rest of the campaign completes.
func RunWithOptions(ctx context.Context, tr *trace.Trace, cfgs []sim.Config, opts Options) ([]Point, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	points := make([]Point, len(cfgs))
	if len(cfgs) == 0 {
		return points, nil
	}
	// Validate (and memoize validity of) the trace once up front rather
	// than racing the first validation across workers.
	if err := tr.Validate(); err != nil {
		for i := range points {
			points[i] = Point{Config: cfgs[i], Err: err}
		}
		return points, nil
	}

	// Journal: replay completed points, then open for appending.
	skip := make([]bool, len(cfgs))
	var jw *journal.Writer
	if opts.JournalDir != "" {
		if opts.Resume {
			recs, _, err := journal.Replay(opts.JournalDir)
			if err != nil {
				return nil, err
			}
			byKey := journal.Latest(recs)
			for i := range cfgs {
				rec, ok := byKey[PointKey(tr, cfgs[i])]
				if !ok {
					continue
				}
				res, err := DecodePointPayload(cfgs[i], tr.Name, rec.Payload)
				if err != nil {
					// An undecodable payload is treated as incomplete,
					// never trusted: the point re-runs.
					continue
				}
				points[i] = Point{Config: cfgs[i], Result: res, Resumed: true}
				skip[i] = true
				if opts.PointDone != nil {
					opts.PointDone(i, points[i])
				}
			}
		}
		var err error
		jw, err = journal.OpenWriter(opts.JournalDir)
		if err != nil {
			return nil, err
		}
	}
	groups := shareGroups(cfgs, skip)
	if workers > len(groups) {
		workers = len(groups)
	}
	// The first journal-append failure is latched and reported once the
	// sweep drains; the points themselves are unaffected.
	var jerrOnce sync.Once
	var jerr error

	// Checkpoint writes from concurrent workers are serialized through a
	// single writer goroutine: workers hand a finished point's encoded
	// record to the channel and move on to the next point instead of
	// contending on the journal's fsync-per-record append. The channel is
	// bounded by the worker count, so a slow disk applies backpressure
	// instead of buffering an unbounded backlog, and the writer drains
	// completely before RunWithOptions returns — a record accepted into
	// the channel is durable (or its error latched) by the time the
	// campaign reports.
	var jch chan journal.Record
	var jwg sync.WaitGroup
	if jw != nil {
		jch = make(chan journal.Record, workers)
		jwg.Add(1)
		go func() {
			defer jwg.Done()
			for rec := range jch {
				if err := jw.Append(rec); err != nil {
					jerrOnce.Do(func() { jerr = err })
				}
			}
		}()
	}

	// attemptOnce runs one attempt of point i under its own deadline,
	// simulating it with run.
	attemptOnce := func(i, attempt int, run simulateFunc) (p Point) {
		cfg := cfgs[i]
		pctx := ctx
		cancel := func() {}
		if opts.PointTimeout > 0 {
			pctx, cancel = context.WithTimeout(ctx, opts.PointTimeout)
		}
		defer cancel()
		func() {
			// A panic in one configuration (a modelling bug) must not
			// take down a thousand-point sweep: convert it to a typed
			// point error.
			defer func() {
				if r := recover(); r != nil {
					p = Point{Config: cfg, Err: fmt.Errorf(
						"sweep: config %s panicked: %v: %w", cfg.Label(), r, simerr.ErrInternalPanic)}
				}
			}()
			if opts.PointHook != nil {
				if err := opts.PointHook(pctx, i, attempt); err != nil {
					p = Point{Config: cfg, Err: fmt.Errorf("sweep: config %s: %w", cfg.Label(), err)}
					return
				}
			}
			res, err := run(pctx, cfg)
			p = Point{Config: cfg, Result: res, Err: err}
		}()
		// An attempt that died because its own deadline fired (and not
		// because the whole campaign was cancelled) is a point timeout.
		// The underlying error is flattened to text deliberately: it
		// wraps ErrCancelled, which must not leak into the timeout's
		// classification.
		if p.Err != nil && errors.Is(pctx.Err(), context.DeadlineExceeded) && ctx.Err() == nil {
			p = Point{Config: cfg, Err: fmt.Errorf(
				"sweep: config %s exceeded the %v per-point deadline (attempt %d: %v): %w",
				cfg.Label(), opts.PointTimeout, attempt, p.Err, simerr.ErrPointTimeout)}
		}
		return p
	}
	// runPoint is attemptOnce plus bounded retry with exponential
	// backoff; only transient classes (timeout, panic) retry. The
	// point's Duration covers every attempt and backoff sleep.
	runPoint := func(i int, run simulateFunc) Point {
		start := time.Now()
		var p Point
		for attempt := 0; ; attempt++ {
			p = attemptOnce(i, attempt, run)
			p.Attempts = attempt + 1
			if p.Err == nil || !simerr.Transient(p.Err) || attempt >= opts.Retries || ctx.Err() != nil {
				break
			}
			if !sleepBackoff(ctx, opts.Backoff, attempt) {
				break
			}
		}
		p.Duration = time.Since(start)
		return p
	}
	record := func(i int, p Point) {
		if jw == nil || p.Err != nil {
			return
		}
		payload, err := EncodePointPayload(p.Result)
		if err != nil {
			jerrOnce.Do(func() { jerr = err })
			return
		}
		jch <- journal.Record{Key: PointKey(tr, cfgs[i]), Index: i, Payload: payload}
	}

	notDispatched := func(i int) Point {
		return Point{Config: cfgs[i], Err: fmt.Errorf(
			"sweep: point not dispatched: %w: %w", simerr.ErrCancelled, context.Cause(ctx))}
	}

	// Each worker takes one group at a time. A group of two or more
	// points shares its L1 stage: the first point, the smallest L1,
	// records the accesses its run sends past its L1s into the worker's
	// log, and every later point replays that log through its own cache
	// geometry — or, when the leader failed, runs the full engine. A
	// follower the log refuses (a notlb or spur follower whose walks leave
	// the recording's) runs in full and records (sim.Rerecord, which
	// resumes a diverged one from the recording's last checkpoint before
	// the divergence), so the larger L1s after it replay from its run.
	// Every point a worker runs, full, recording or replayed, builds its
	// caches in the arrays its log holds. Each point keeps its own attempt
	// loop, Duration, journal record and PointDone call.
	var wg sync.WaitGroup
	next := make(chan []int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			log := sim.TakeLog()
			defer sim.PutLog(log)
			full := func(pctx context.Context, cfg sim.Config) (*sim.Result, error) {
				return sim.SimulateIn(pctx, cfg, tr, log)
			}
			lead := func(pctx context.Context, cfg sim.Config) (*sim.Result, error) {
				return sim.SimulateRecord(pctx, cfg, tr, log)
			}
			replay := func(pctx context.Context, cfg sim.Config) (*sim.Result, error) {
				res, err := sim.ReplayL2(pctx, cfg, log)
				if errors.Is(err, sim.ErrL2LogRefused) {
					return sim.Rerecord(pctx, cfg, tr, log, err)
				}
				return res, err
			}
			for g := range next {
				run := full
				if len(g) > 1 {
					run = lead
				}
				for k, i := range g {
					if k > 0 && ctx.Err() != nil {
						// Cancelled mid-group: the rest of the group is
						// marked exactly as undispatched points are.
						for _, j := range g[k:] {
							points[j] = notDispatched(j)
						}
						break
					}
					p := runPoint(i, run)
					record(i, p)
					points[i] = p
					if opts.PointDone != nil {
						opts.PointDone(i, p)
					}
					if k == 0 && len(g) > 1 {
						// A failed leader leaves no log to replay.
						run = full
						if p.Err == nil {
							run = replay
						}
					}
				}
			}
		}()
	}
	done := ctx.Done()
dispatch:
	for n, g := range groups {
		select {
		case next <- g:
		case <-done:
			// Mark everything not yet handed to a worker; workers drain
			// the group they already hold.
			for _, g := range groups[n:] {
				for _, j := range g {
					points[j] = notDispatched(j)
				}
			}
			break dispatch
		}
	}
	close(next)
	wg.Wait()
	if jch != nil {
		close(jch)
		jwg.Wait()
	}
	return points, jerr
}

// simulateFunc runs one simulation attempt of a point.
type simulateFunc func(ctx context.Context, cfg sim.Config) (*sim.Result, error)

// shareGroups partitions the points still to simulate into dispatch
// units, ordered by their first index: the points that sim.ShareKey maps
// to one key form one group, run in sim.CompareShared's order, and every
// other point is a group of its own.
func shareGroups(cfgs []sim.Config, skip []bool) [][]int {
	var groups [][]int
	byKey := make(map[sim.Config]int)
	for i, cfg := range cfgs {
		if skip[i] {
			continue
		}
		if key, ok := sim.ShareKey(cfg); ok {
			if g, seen := byKey[key]; seen {
				groups[g] = append(groups[g], i)
				continue
			}
			byKey[key] = len(groups)
		}
		groups = append(groups, []int{i})
	}
	for _, g := range groups {
		slices.SortStableFunc(g, func(i, j int) int { return sim.CompareShared(cfgs[i], cfgs[j]) })
	}
	return groups
}

// sleepBackoff waits base<<attempt (capped at maxBackoff), abandoning
// the wait — and reporting false — if ctx is cancelled first.
func sleepBackoff(ctx context.Context, base time.Duration, attempt int) bool {
	if base <= 0 {
		return true
	}
	d := base
	for i := 0; i < attempt && d < maxBackoff; i++ {
		d *= 2
	}
	if d > maxBackoff {
		d = maxBackoff
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// PointKey identifies one sweep point for the journal: the trace
// identity plus every field of the configuration, hashed. Any change to
// either produces a different key, so a stale journal can never claim a
// different campaign's points. An explicit machine spec enters by its
// canonical bytes (as in api.CanonicalConfig), never by its address, so
// two loads of one spec file give one key; a configuration without one
// hashes exactly as it always has. Exported because the distributed
// coordinator (internal/coord) journals its campaign state under the
// same keys — a journal written locally resumes remotely and vice
// versa.
func PointKey(tr *trace.Trace, cfg sim.Config) string {
	h := sha256.New()
	spec := cfg.Machine
	cfg.Machine = nil
	fmt.Fprintf(h, "%s|%d|%#v", tr.Name, tr.Len(), cfg)
	if spec != nil {
		b, err := machine.Canonical(spec)
		if err != nil {
			// An invalid spec fails its point, which is never journalled,
			// so its key need only be deterministic. A Spec holds plain
			// values only, so marshalling it cannot fail.
			b, _ = json.Marshal(spec)
		}
		fmt.Fprintf(h, "|machine=%s", b)
	}
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:16])
}

// journalResult is the lossless wire form of a completed point's
// result. (sim.Result's own MarshalJSON is a flattened presentation
// format that cannot round-trip; the journal needs the raw counters.)
type journalResult struct {
	Workload       string         `json:"workload"`
	Counters       stats.Counters `json:"counters"`
	AvgChainLength float64        `json:"avg_chain_length,omitempty"`
	// PerCore journals each core's own counters for multicore points;
	// empty for single-core points, keeping their records byte-stable.
	PerCore []stats.Counters `json:"per_core,omitempty"`
}

// EncodePointPayload serializes a completed point's result into the
// journal's lossless payload form (shared with internal/coord).
func EncodePointPayload(res *sim.Result) (json.RawMessage, error) {
	return json.Marshal(journalResult{
		Workload:       res.Workload,
		Counters:       res.Counters,
		AvgChainLength: res.AvgChainLength,
		PerCore:        res.PerCore,
	})
}

// DecodePointPayload reconstructs a journalled result. The workload
// name must match the trace being swept — a guard against a journal
// written by a different campaign colliding on key (impossible by
// construction, but cheap to enforce).
func DecodePointPayload(cfg sim.Config, workload string, payload json.RawMessage) (*sim.Result, error) {
	var jr journalResult
	if err := json.Unmarshal(payload, &jr); err != nil {
		return nil, err
	}
	if jr.Workload != workload {
		return nil, fmt.Errorf("sweep: journal record for workload %q, want %q", jr.Workload, workload)
	}
	return &sim.Result{
		Config:         cfg,
		Workload:       jr.Workload,
		Counters:       jr.Counters,
		AvgChainLength: jr.AvgChainLength,
		PerCore:        jr.PerCore,
	}, nil
}

// Space enumerates a configuration cross-product. Nil/empty dimensions
// inherit the corresponding Base value.
type Space struct {
	// Base supplies every field not swept.
	Base sim.Config

	VMs        []string
	L1Sizes    []int
	L2Sizes    []int
	L1Lines    []int
	L2Lines    []int
	TLBEntries []int
	// TLB2Entries sweeps the unified second-level TLB's capacity (0 =
	// no L2 TLB); associativity stays Base.TLB2Assoc throughout.
	TLB2Entries []int
	Seeds       []uint64
	// Cores sweeps the simulated core count (0/1 = the single-core
	// machine); OSPolicies the kernel's page-replacement policy. Frame
	// budget and shootdown cost stay Base.MemFrames/Base.ShootdownCost
	// throughout.
	Cores      []int
	OSPolicies []string
}

// PaperL1Sizes are Table 1's L1 sizes (bytes per side).
func PaperL1Sizes() []int {
	return []int{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10}
}

// PaperL2Sizes are the L2 sizes the figures sweep (bytes per side).
func PaperL2Sizes() []int { return []int{1 << 20, 2 << 20, 4 << 20} }

// PaperLineSizes are Table 1's linesizes (bytes).
func PaperLineSizes() []int { return []int{16, 32, 64, 128} }

// Configs expands the cross-product in deterministic order (VMs
// outermost, seeds innermost).
func (s Space) Configs() []sim.Config {
	vms := s.VMs
	if len(vms) == 0 {
		vms = []string{s.Base.VM}
	}
	l1s := orDefaultInt(s.L1Sizes, s.Base.L1SizeBytes)
	l2s := orDefaultInt(s.L2Sizes, s.Base.L2SizeBytes)
	l1l := orDefaultInt(s.L1Lines, s.Base.L1LineBytes)
	l2l := orDefaultInt(s.L2Lines, s.Base.L2LineBytes)
	tlbs := orDefaultInt(s.TLBEntries, s.Base.TLBEntries)
	tlb2s := orDefaultInt(s.TLB2Entries, s.Base.TLB2Entries)
	seeds := s.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{s.Base.Seed}
	}
	coress := orDefaultInt(s.Cores, s.Base.Cores)
	policies := s.OSPolicies
	if len(policies) == 0 {
		policies = []string{s.Base.OSPolicy}
	}
	out := make([]sim.Config, 0,
		len(vms)*len(l1s)*len(l2s)*len(l1l)*len(l2l)*len(tlbs)*len(tlb2s)*len(coress)*len(policies)*len(seeds))
	for _, vm := range vms {
		for _, l1 := range l1s {
			for _, l2 := range l2s {
				for _, ll1 := range l1l {
					for _, ll2 := range l2l {
						for _, tl := range tlbs {
							for _, t2 := range tlb2s {
								for _, cores := range coress {
									for _, pol := range policies {
										for _, seed := range seeds {
											c := s.Base
											c.VM = vm
											c.L1SizeBytes = l1
											c.L2SizeBytes = l2
											c.L1LineBytes = ll1
											c.L2LineBytes = ll2
											c.TLBEntries = tl
											c.TLB2Entries = t2
											c.Cores = cores
											c.OSPolicy = pol
											c.Seed = seed
											out = append(out, c)
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return out
}

func orDefaultInt(vals []int, def int) []int {
	if len(vals) == 0 {
		return []int{def}
	}
	return vals
}
