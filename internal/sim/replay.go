package sim

import (
	"context"
	"fmt"

	"repro/internal/simerr"
	"repro/internal/stats"
	"repro/internal/trace"
)

// One replay driver runs both machines, the single-core Engine and the
// Multicore cluster, by the paper's §3.1 method: replay the trace in
// order, charge nothing during a warmup prefix (the machine state still
// evolves), then charge every reference to the MCPI/VMCPI taxonomy. The
// driver owns a run's state — warmup boundary, trace position, phase,
// timeline samples, cancellation poll, open stream — so Run, RunContext,
// Begin/Step/Finish and BeginStream/Feed/EndStream are defined once and
// promoted into both machines, which supply only the replayer hooks.
//
// A run is warming while pos < warm, then measuring: the first
// reference at the boundary resets the TLB statistics and arms sampling
// (cross). feed replays in spans that end at the boundary and at every
// interval end, which appends a TimelineSample; end records the trailing
// partial interval. RunContext is begin, feed the whole trace, end; a
// stream is the same with the trace delivered piecewise. Where a span
// ends changes no counter — runPhase folds its tallies additively, other
// spans replay one reference at a time — so any chunking is
// bit-identical to a batch run (TestStreamMatchesBatch). A stream must
// not be interleaved with Begin or RunContext, which reset its state.

// replayer is a machine as the driver sees it: the Engine or the
// Multicore cluster.
type replayer interface {
	// span replays refs, trace indices pos onward, which lie inside
	// one phase and one sampling interval.
	span(refs []trace.Ref, pos int) error
	// step replays the one reference at trace index pos.
	step(r *trace.Ref, pos int) error
	// setLive switches the machine between warming (charging nothing)
	// and measuring.
	setLive(live bool)
	// resetTLBStats restarts the TLB statistics at the warmup boundary;
	// cache and TLB contents carry over.
	resetTLBStats()
	// Snapshot returns the counters accumulated so far.
	Snapshot() stats.Counters
	// result assembles the Result after the last reference.
	result(workload string) *Result
}

// cancelCheckRefs is how many references RunContext replays between
// cancellation polls: one channel poll per span costs nothing next to
// the span, yet bounds how long a run outlives its context, which lets
// the sweep pool impose per-point deadlines without abandoning
// goroutines.
const cancelCheckRefs = 1 << 16

// driver is the replay state machine a machine embeds.
type driver struct {
	m replayer
	// warmup and every are the configured WarmupInstrs and SampleEvery.
	warmup, every int

	// warm is the run's warmup boundary and pos the number of references
	// replayed; measuring is set from the boundary on.
	warm, pos int
	measuring bool

	// Timeline samples: sampleBase is the snapshot at the start of the
	// measured window, samplePrev the one at the previous interval end.
	samples                []TimelineSample
	sampleBase, samplePrev stats.Counters

	// The open stream: its name and declared length (-1 when unknown).
	streaming bool
	name      string
	total     int
}

func newDriver(m replayer, cfg Config) driver {
	return driver{m: m, warmup: cfg.WarmupInstrs, every: cfg.SampleEvery}
}

// begin opens a run over total references. The warmup is
// WarmupInstrs capped at half the trace; total < 0 means unknown, which
// leaves it uncapped (the cap needs a length).
func (d *driver) begin(total int) {
	d.warm = d.warmup
	if total >= 0 && d.warm > total/2 {
		d.warm = total / 2
	}
	d.pos = 0
	d.samples = nil
	d.measuring = d.warm == 0
	d.m.setLive(d.measuring)
	if d.measuring {
		d.arm() // no warmup: TLB statistics stand as they are
	}
}

// cross starts measuring when the run stands at the warmup boundary:
// machine state carries over, the TLB statistics restart.
func (d *driver) cross() {
	if d.measuring || d.pos != d.warm {
		return
	}
	d.measuring = true
	d.m.setLive(true)
	d.m.resetTLBStats()
	d.arm()
}

// arm starts timeline sampling at the start of the measured window: the
// current snapshot is the base of cumulative Totals and of the first
// Delta.
func (d *driver) arm() {
	if d.every > 0 {
		d.sampleBase = d.m.Snapshot()
		d.samplePrev = d.sampleBase
	}
}

// sample appends the interval ending at the current position.
func (d *driver) sample() {
	cur := d.m.Snapshot()
	delta, total := cur, cur
	delta.Sub(&d.samplePrev)
	total.Sub(&d.sampleBase)
	d.samples = append(d.samples, TimelineSample{Instr: uint64(d.pos), Delta: delta, Total: total})
	d.samplePrev = cur
}

// feed replays refs in spans that end at the warmup boundary, at every
// interval end and, when ctx can be cancelled, every cancelCheckRefs
// references, polling ctx before each span.
func (d *driver) feed(ctx context.Context, refs []trace.Ref) error {
	done := ctx.Done()
	for len(refs) > 0 {
		if done != nil {
			select {
			case <-done:
				return fmt.Errorf("sim: run cancelled at instruction %d: %w: %w",
					d.pos, simerr.ErrCancelled, context.Cause(ctx))
			default:
			}
		}
		d.cross()
		n := len(refs)
		if !d.measuring {
			n = min(n, d.warm-d.pos)
		} else if d.every > 0 {
			n = min(n, d.every-(d.pos-d.warm)%d.every)
		}
		if done != nil {
			n = min(n, cancelCheckRefs)
		}
		if err := d.m.span(refs[:n], d.pos); err != nil {
			return err
		}
		d.pos += n
		refs = refs[n:]
		if d.measuring && d.every > 0 && (d.pos-d.warm)%d.every == 0 {
			d.sample()
		}
	}
	return nil
}

// end closes a replayed run: a run standing at its warmup boundary
// crosses it, the trailing partial interval is recorded (only inside
// the measured window), and the Result carries the whole timeline.
func (d *driver) end(workload string) *Result {
	d.cross()
	if d.measuring && d.every > 0 && (d.pos-d.warm)%d.every != 0 {
		d.sample()
	}
	return d.Finish(workload)
}

// Run replays tr through the simulated machine, following the paper's
// §3.1 pseudocode: translate the fetch (walking the page table on an
// I-TLB miss), look up the I-cache, then — for loads and stores —
// translate the data address and look up the D-cache. For organizations
// without TLBs the walker runs on user-level L2 misses instead.
func (d *driver) Run(tr *trace.Trace) (*Result, error) {
	return d.RunContext(context.Background(), tr)
}

// RunContext is Run with cooperative cancellation: once ctx is done it
// abandons the run with an error wrapping both simerr.ErrCancelled and
// the context's cause. An un-cancelled RunContext is bit-identical to
// Run: span ends change no counter.
func (d *driver) RunContext(ctx context.Context, tr *trace.Trace) (*Result, error) {
	return d.runFrom(ctx, tr, 0)
}

// runFrom is RunContext for a machine whose state the caller has already
// brought to reference pos of tr: it replays the references from pos on,
// still warming, at the warmup boundary or measuring, as a run from the
// start would stand there. A run resumed past the boundary does not
// restart the TLB statistics or arm sampling there; the only machine
// resumed that way, a verified recording's (share.go), has neither.
func (d *driver) runFrom(ctx context.Context, tr *trace.Trace, pos int) (*Result, error) {
	if err := d.Begin(tr); err != nil {
		return nil, err
	}
	if d.pos = pos; pos > d.warm {
		d.measuring = true
		d.m.setLive(true)
	}
	if err := d.feed(ctx, tr.Refs[pos:]); err != nil {
		return nil, err
	}
	return d.end(tr.Name), nil
}

// Begin prepares the machine to replay tr one reference at a time with
// Step, the loop external checkers (internal/check's differential
// harness) drive to compare machine state after every reference.
func (d *driver) Begin(tr *trace.Trace) error {
	if err := tr.Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	d.begin(len(tr.Refs))
	return nil
}

// Step replays the next reference through the reference implementation
// (TestRunMatchesStep holds it to Run's loop). It fails when the OS
// kernel does (memory exhaustion) or, with Config.CheckInvariants set,
// when a conservation law fails after the reference.
func (d *driver) Step(r *trace.Ref) error {
	if d.pos == d.warm { // tested here so a reference costs no call
		d.cross()
	}
	err := d.m.step(r, d.pos)
	d.pos++
	return err
}

// Finish assembles the Result after the last Step.
func (d *driver) Finish(workload string) *Result {
	res := d.m.result(workload)
	res.Timeline = d.samples
	return res
}

// BeginStream opens an incremental run: Feed consumes reference chunks
// as they arrive (the caller chooses the chunking) and EndStream
// finalizes the Result. total is the declared reference count (a .vmtrc
// header carries it) and caps the warmup as Begin does; total < 0 means
// unknown — the warmup stays uncapped and EndStream skips the
// short-stream check. name labels the Result and any validation errors.
func (d *driver) BeginStream(name string, total int) error {
	if d.streaming {
		return fmt.Errorf("sim: BeginStream: stream %q already open", d.name)
	}
	d.streaming, d.name, d.total = true, name, total
	d.begin(total)
	return nil
}

// Feed replays the next chunk of the stream and returns the timeline
// samples the chunk completed (nil when sampling is off or no interval
// ended; the returned slice aliases the driver's sample buffer and stays
// valid through EndStream). Chunks are validated on entry with the same
// invariants batch replay enforces; a violation — or feeding past a
// declared total — fails with an error wrapping simerr.ErrTraceCorrupt
// and leaves the already-replayed prefix's state intact.
func (d *driver) Feed(refs []trace.Ref) ([]TimelineSample, error) {
	if !d.streaming {
		return nil, fmt.Errorf("sim: Feed without BeginStream")
	}
	if len(refs) == 0 {
		return nil, nil
	}
	if d.total >= 0 && d.pos+len(refs) > d.total {
		return nil, fmt.Errorf("sim: stream %q overfed: %d more references after %d of a declared %d: %w",
			d.name, len(refs), d.pos, d.total, simerr.ErrTraceCorrupt)
	}
	if err := trace.ValidateRefs(d.name, d.pos, refs); err != nil {
		return nil, err
	}
	base := len(d.samples)
	if err := d.feed(context.Background(), refs); err != nil {
		return nil, err
	}
	return d.samples[base:len(d.samples):len(d.samples)], nil
}

// EndStream closes the stream and assembles the Result, trailing
// partial interval included. A stream that declared a total but ended
// short fails with an error wrapping simerr.ErrTraceCorrupt: a truncated
// upload must not masquerade as a completed run. The machine state
// survives either way, and a new stream or batch run may follow.
func (d *driver) EndStream() (*Result, error) {
	if !d.streaming {
		return nil, fmt.Errorf("sim: EndStream without BeginStream")
	}
	d.streaming = false
	if d.total >= 0 && d.pos != d.total {
		return nil, fmt.Errorf("sim: stream %q ended at reference %d of a declared %d: %w",
			d.name, d.pos, d.total, simerr.ErrTraceCorrupt)
	}
	return d.end(d.name), nil
}
