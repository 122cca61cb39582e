package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// instance is one set-up workload: its generated inputs and, for serve,
// its vmserved child.
type instance interface {
	// pass runs the workload's operation script once. t is nil in
	// untraced runs.
	pass(ctx context.Context, t *tracer) (passStats, error)
	// check compares every output of the passes run so far with the
	// recorded canaries (default seed) or with a serial local recompute
	// (any seed). It runs after the timed window.
	check(ctx context.Context) tally
	// prepared is what the instance's set-up cost, step by step.
	prepared() prepStats
	// pid names the simulating process under /proc: "self", or the
	// vmserved child.
	pid() string
	close() error
}

// passStats is what one pass measured.
type passStats struct {
	wall   time.Duration   // the pass's wall-clock
	refs   int64           // trace references simulated
	points []time.Duration // latency of every simulated point
	ops    tally           // points, requests and streams, with failures
}

// setups maps a workload name to its setup function.
var setups = map[string]func(context.Context, *options, *tracer) (instance, error){
	"paper":     func(ctx context.Context, o *options, t *tracer) (instance, error) { return setupPaper(ctx, o, t) },
	"multicore": func(ctx context.Context, o *options, t *tracer) (instance, error) { return setupMulticore(ctx, o, t) },
	"serve":     func(ctx context.Context, o *options, t *tracer) (instance, error) { return setupServe(ctx, o, t) },
}

// measure is a --trace 0 run: set up, run passes for the timed window
// with more set-ups timed between them, check outputs, report the
// end-to-end metrics.
func measure(ctx context.Context, o *options, name string) (map[string]metric, tally, error) {
	var su setupTimes
	inst, err := su.setUp(ctx, o, name)
	if err != nil {
		return nil, tally{}, err
	}
	defer inst.close()

	// max_rss_mb is the peak of the passes and the checks. Each extra
	// set-up's inputs and garbage would add to it, so the peak is read
	// before each one and restarted after it, once that garbage is back
	// with the OS; the live inputs still count.
	var peak int64
	resetPeak := func() error {
		debug.FreeOSMemory()
		return resetPeakRSS(inst.pid())
	}
	readPeak := func() error {
		rss, err := peakRSSOf(inst.pid())
		peak = max(peak, rss)
		return err
	}
	if err := resetPeak(); err != nil {
		return nil, tally{}, err
	}
	// Each extra set-up is torn down at once and starts, like the first,
	// from a heap with nothing to reuse.
	extra := func() error {
		if err := readPeak(); err != nil {
			return err
		}
		debug.FreeOSMemory()
		in, err := su.setUp(ctx, o, name)
		if err != nil {
			return err
		}
		if err := in.close(); err != nil {
			return err
		}
		return resetPeak()
	}
	passes, err := timedPasses(ctx, o.seconds, inst, setupReps-1, extra)
	if err != nil {
		return nil, tally{}, err
	}
	var t tally
	for _, p := range passes {
		t.add(p.ops)
	}
	t.add(inst.check(ctx))
	if err := readPeak(); err != nil {
		return nil, tally{}, err
	}

	var walls, refs, points []float64
	for _, p := range passes {
		walls = append(walls, p.wall.Seconds())
		refs = append(refs, float64(p.refs))
		for _, d := range p.points {
			points = append(points, ms(d))
		}
	}
	wall := median(walls)
	fmt.Fprintf(o.log, "hostbench: %d passes; pass wall s min %.4g median %.4g max %.4g\n",
		len(walls), quantile(walls, 0), wall, quantile(walls, 1))
	fmt.Fprintf(o.log, "hostbench: %d set-ups; total s min %.4g median %.4g max %.4g; step medians s %.4g\n",
		len(su.total), quantile(su.total, 0), median(su.total), quantile(su.total, 1), su.medians())
	return map[string]metric{
		"wall_s":         {wall, "s"},
		"sim_refs_per_s": {median(refs) / wall, "refs/s"},
		"point_p50_ms":   {median(points), "ms"},
		"setup_s":        {su.seconds(), "s"},
		"max_rss_mb":     {float64(peak) / (1 << 20), "MB"},
	}, t, nil
}

// setupTimes collects the set-ups of one run, step by step.
type setupTimes struct {
	// steps[k] holds set-up step k's seconds, one per set-up; the last
	// step is whatever the named steps leave out of the total.
	steps [][]float64
	total []float64
}

// setUp sets the workload up once and records its times.
func (su *setupTimes) setUp(ctx context.Context, o *options, name string) (instance, error) {
	start := time.Now()
	in, err := setups[name](ctx, o, nil)
	if err != nil {
		return nil, fmt.Errorf("%s setup: %w", name, err)
	}
	rest := time.Since(start)
	su.total = append(su.total, rest.Seconds())
	named := in.prepared().steps()
	if su.steps == nil {
		su.steps = make([][]float64, len(named)+1)
	}
	for k, d := range named {
		su.steps[k] = append(su.steps[k], d.Seconds())
		rest -= d
	}
	su.steps[len(named)] = append(su.steps[len(named)], rest.Seconds())
	return in, nil
}

func (su *setupTimes) medians() []float64 {
	out := make([]float64, len(su.steps))
	for k, xs := range su.steps {
		out[k] = median(xs)
	}
	return out
}

// seconds is setup_s: the sum of each step's median over the set-ups, so
// a stall (a collection, a slow exec) in one set-up's step moves only
// that step's sample, which its median ignores.
func (su *setupTimes) seconds() float64 { return sum(su.medians()) }

// timedPasses runs back-to-back passes until the next one would end past
// the window (by the last pass's length), and at least minPasses. Between
// passes it calls extra n times in all, spread evenly over the window, so
// those calls see the same drift in host speed as the passes do; any not
// yet made when the window closes are made after it.
func timedPasses(ctx context.Context, window time.Duration, inst instance, n int, extra func() error) ([]passStats, error) {
	start := time.Now()
	deadline := start.Add(window)
	var out []passStats
	made := 0
	for len(out) < minPasses || time.Now().Add(out[len(out)-1].wall).Before(deadline) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if due := 1 + int(float64(n)*float64(time.Since(start))/float64(window)); made < min(due, n) {
			if err := extra(); err != nil {
				return nil, err
			}
			made++
		}
		p, err := inst.pass(ctx, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	for ; made < n; made++ {
		if err := extra(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// peakRSSOf reads a process's peak resident set (VmHWM) from /proc.
func peakRSSOf(pid string) (int64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb << 10, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// resetPeakRSS restarts a process's VmHWM from its current RSS.
func resetPeakRSS(pid string) error {
	return os.WriteFile("/proc/"+pid+"/clear_refs", []byte("5"), 0)
}

// median returns the middle of xs (the mean of the middle two for an even
// count); NaN for none.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; NaN for none.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func nsPer(d time.Duration, n int64) float64 { return float64(d.Nanoseconds()) / float64(n) }
