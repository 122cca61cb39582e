package main

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"time"

	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// sweepSet is what the paper and multicore workloads share: traces read
// back from .vmtrc files, each swept over all its configurations in one
// sweep.RunWithOptions call per pass, as vmexperiment and vmsweep do, with
// pass 0's points kept for the output checks.
type sweepSet struct {
	o      *options
	name   string // the workload
	dir    string
	prep   prepStats
	traces []*trace.Trace
	cfgs   [][]sim.Config // per trace
	first  [][]sweep.Point
	digest []string // exactDigest of pass 0, per trace
	passes int
}

func newSweepSet(o *options, name string) (*sweepSet, error) {
	dir, err := os.MkdirTemp(o.work, name+"-")
	if err != nil {
		return nil, err
	}
	return &sweepSet{o: o, name: name, dir: dir}, nil
}

// add prepares one trace and the configurations it is swept over.
func (b *sweepSet) add(t *tracer, parent int64, name string, gen func() (*trace.Trace, error), cfgs []sim.Config) error {
	tr, _, err := prepareTrace(t, parent, &b.prep, b.dir, name, gen)
	if err != nil {
		return err
	}
	b.traces = append(b.traces, tr)
	b.cfgs = append(b.cfgs, cfgs)
	return nil
}

// warm runs the untimed warm point: the first configuration of the first
// trace.
func (b *sweepSet) warm(ctx context.Context, t *tracer, parent int64) error {
	sp := t.begin(parent, "setup.warm_point", "")
	start := time.Now()
	pts, err := sweep.RunWithOptions(ctx, b.traces[0], b.cfgs[0][:1], sweep.Options{Workers: 1})
	b.prep.warm = time.Since(start)
	t.end(sp)
	if err == nil {
		err = pts[0].Err
	}
	if err != nil {
		return fmt.Errorf("warm point: %w", err)
	}
	return nil
}

func (b *sweepSet) pass(ctx context.Context, t *tracer) (passStats, error) {
	sp := t.begin(0, "pass."+b.name, "")
	var ps passStats
	all := make([][]sweep.Point, len(b.traces))
	start := time.Now()
	for i, tr := range b.traces {
		var err error
		if all[i], err = sweepTraced(ctx, t, sp, tr, b.cfgs[i], b.o.workers); err != nil {
			return ps, err
		}
		ps.refs += int64(len(tr.Refs)) * int64(len(b.cfgs[i]))
	}
	ps.wall = time.Since(start)
	t.end(sp)

	for i, pts := range all {
		results := make([]*sim.Result, len(pts))
		for j, p := range pts {
			ps.ops.ok(p.Err == nil, "%s %s point %d: %v", b.name, b.traces[i].Name, j, p.Err)
			ps.points = append(ps.points, p.Duration)
			results[j] = p.Result
		}
		d := exactDigest(results)
		if b.passes == 0 {
			b.first = append(b.first, pts)
			b.digest = append(b.digest, d)
			continue
		}
		ps.ops.ok(d == b.digest[i], "%s %s pass %d: results differ from pass 0", b.name, b.traces[i].Name, b.passes)
	}
	b.passes++
	return ps, nil
}

// sweepTraced runs one sweep, recording a span for the sweep and one per
// point when t is non-nil. A point's span ends at its PointDone callback
// and starts Duration earlier; its key is the trace name and the point's
// index.
func sweepTraced(ctx context.Context, t *tracer, parent int64, tr *trace.Trace, cfgs []sim.Config, workers int) ([]sweep.Point, error) {
	opts := sweep.Options{Workers: workers}
	sp := t.begin(parent, "sweep.run", tr.Name)
	if t != nil {
		opts.PointDone = func(i int, p sweep.Point) {
			end := time.Now()
			t.record(sp, "sweep.point", tr.Name+"/"+strconv.Itoa(i), end.Add(-p.Duration), end)
		}
	}
	pts, err := sweep.RunWithOptions(ctx, tr, cfgs, opts)
	t.end(sp)
	return pts, err
}

func (b *sweepSet) prepared() prepStats { return b.prep }

func (b *sweepSet) pid() string { return "self" }

func (b *sweepSet) close() error { return os.RemoveAll(b.dir) }
