package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/addr"
	"repro/internal/api"
	"repro/internal/oskernel"
	"repro/internal/sim"
	"repro/internal/tlb"
	"repro/internal/trace"
)

// replayReps is how many times each layer replay is timed; the ledger
// reports the median.
const replayReps = 3

// ledgerPasses is how many untraced and traced passes of each workload
// a traced run makes, alternating, for the tracing overhead.
const ledgerPasses = 2

// unmeasured names the per-layer metrics the ledger leaves out, and why.
var unmeasured = map[string]string{
	"oskernel.evictions_per_touch.first-touch": "first-touch never evicts, so the ratio is 0 by definition",
}

// ledger collects the per-layer metrics of a traced run.
type ledger map[string]metric

func (l ledger) set(name, unit string, v float64) { l[name] = metric{v, unit} }

// runLedger is a --trace 1 run. It covers all three workloads whatever
// -workload names, so every traced run reports the whole ledger: each
// workload is set up once and run untraced and traced, then each layer is
// replayed alone over that workload's inputs.
func runLedger(ctx context.Context, o *options) (map[string]metric, tally, string, error) {
	t := newTracer()
	l := ledger{}
	var tl tally
	var gen prepStats

	pb, err := setupPaper(ctx, o, t)
	if err != nil {
		return nil, tl, "", fmt.Errorf("paper setup: %w", err)
	}
	err = ledgerPaper(ctx, o, t, l, &tl, pb)
	gen.gen, gen.genRefs = gen.gen+pb.prep.gen, gen.genRefs+pb.prep.genRefs
	if cerr := pb.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, tl, "", err
	}

	mb, err := setupMulticore(ctx, o, t)
	if err != nil {
		return nil, tl, "", fmt.Errorf("multicore setup: %w", err)
	}
	err = ledgerMulticore(ctx, o, t, l, &tl, mb)
	gen.gen, gen.genRefs = gen.gen+mb.prep.gen, gen.genRefs+mb.prep.genRefs
	if cerr := mb.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, tl, "", err
	}

	sb, err := setupServe(ctx, o, t)
	if err != nil {
		return nil, tl, "", fmt.Errorf("serve setup: %w", err)
	}
	err = ledgerServe(ctx, o, t, l, &tl, sb)
	gen.gen, gen.genRefs = gen.gen+sb.prep.gen, gen.genRefs+sb.prep.genRefs
	if cerr := sb.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, tl, "", err
	}
	l.set("workload.generate_ns_per_ref", "ns", nsPer(gen.gen, gen.genRefs))

	path := filepath.Join(o.work, fmt.Sprintf("spans-seed%d.jsonl", o.seed))
	if err := t.write(path); err != nil {
		return nil, tl, "", err
	}
	return l, tl, path, nil
}

// overhead runs the workload's passes alternately untraced and traced,
// sets bench.traced_over_untraced.<name>, and returns the traced passes'
// span ids.
func overhead(ctx context.Context, t *tracer, l ledger, tl *tally, name string, inst instance) ([]int64, error) {
	// One warm-up pass first: the first pass after setup runs slow.
	p, err := inst.pass(ctx, nil)
	if err != nil {
		return nil, err
	}
	tl.add(p.ops)
	var plain, traced []float64
	var roots []int64
	// Then untraced, traced, traced, untraced, ...: drift over the run
	// weighs on both sides alike.
	for i := 0; i < 2*ledgerPasses; i++ {
		var tr *tracer
		if i%4 == 1 || i%4 == 2 {
			tr = t
		}
		p, err = inst.pass(ctx, tr)
		if err != nil {
			return nil, err
		}
		tl.add(p.ops)
		if tr == nil {
			plain = append(plain, p.wall.Seconds())
			continue
		}
		traced = append(traced, p.wall.Seconds())
		passes := t.find(0, "pass."+name)
		roots = append(roots, passes[len(passes)-1].ID)
	}
	l.set("bench.traced_over_untraced."+name, "ratio", median(traced)/median(plain))
	return roots, nil
}

// under collects the durations of the spans called name below any root.
func under(t *tracer, roots []int64, name string) []float64 {
	var out []float64
	for _, r := range roots {
		for _, d := range t.durs(r, name) {
			out = append(out, ms(d))
		}
	}
	return out
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// sweepLedger derives the sweep layer's metrics from the traced passes'
// point spans.
func sweepLedger(t *tracer, l ledger, roots []int64, name string, workers int) {
	points := under(t, roots, "sweep.point")
	l.set("sweep.point_p50_ms."+name, "ms", median(points))
	// Idle share of the pool: worker time not spent inside a point.
	l.set("sweep.pool_idle_frac."+name, "fraction", 1-sum(points)/(float64(workers)*sum(under(t, roots, "sweep.run"))))
	if name == "paper" {
		l.set("sweep.point_p99_ms.paper", "ms", quantile(points, 0.99))
		l.set("sweep.point_p99_n.paper", "count", float64(len(points)))
	}
}

func ledgerPaper(ctx context.Context, o *options, t *tracer, l ledger, tl *tally, b *paperBench) error {
	roots, err := overhead(ctx, t, l, tl, "paper", b)
	if err != nil {
		return err
	}
	sweepLedger(t, l, roots, "paper", o.workers)
	tl.add(b.check(ctx))
	l.set("trace.vmtrc_encode_ns_per_ref", "ns", nsPer(b.prep.encode, b.prep.genRefs))
	l.set("trace.vmtrc_open_ns_per_ref", "ns", nsPer(b.prep.open, b.prep.vmtrcRefs))

	sp := t.begin(0, "ledger.paper", "")
	defer t.end(sp)
	var tlbLookups, tlbInserts, cacheAcc int64
	var tlbFull, tlbIns, cacheT time.Duration
	walkT := map[string]time.Duration{}
	walkN := map[string]int64{}
	walkLoads := map[string]int64{}
	for _, tr := range b.traces {
		refs := int64(len(tr.Refs))
		engine := map[string]time.Duration{}
		for _, vm := range sim.PaperVMs() {
			cfg := sim.Default(vm)
			cfg.Seed = o.seed
			d, err := timeEngine(t, sp, cfg, tr)
			if err != nil {
				return err
			}
			engine[vm] = d
			l.set(fmt.Sprintf("sim.engine_ns_per_ref.%s.%s", vm, tr.Name), "ns", nsPer(d, refs))
		}

		probes := engineProbes(tr.Refs, sim.Default(sim.VMUltrix).L1LineBytes)
		tp := tlbReplay(t, sp, probes, o.seed)
		tlbLookups += tp.lookups
		tlbInserts += int64(len(tp.inserts))
		tlbFull += tp.full
		tlbIns += tp.insertOnly
		l.set("tlb.miss_ratio."+tr.Name, "fraction", float64(len(tp.misses))/float64(tp.lookups))

		cp := cacheReplay(t, sp, probes)
		cacheT += cp.time
		cacheAcc += cp.accesses
		l.set("cache.l1_miss_ratio."+tr.Name, "fraction", float64(cp.l1Misses)/float64(cp.accesses))
		l.set("cache.l2_miss_ratio."+tr.Name, "fraction", float64(cp.l2Misses)/float64(cp.l1Misses))

		var ultrixWalk time.Duration
		for _, w := range walkers {
			stream := tp.misses
			if w.name == sim.VMNoTLB {
				stream = cp.l2Stream
			}
			d, loads := walkReplay(t, sp, w, stream)
			walkT[w.name] += d
			walkN[w.name] += int64(len(stream))
			walkLoads[w.name] += loads
			if w.name == sim.VMUltrix {
				ultrixWalk = d
			}
		}
		// Glue: what the engine spends beyond its TLB, cache and walker
		// work, each replayed alone over the same probes.
		l.set("sim.glue_ns_per_ref."+tr.Name, "ns", nsPer(engine[sim.VMUltrix]-tp.full-cp.time-ultrixWalk, refs))
	}
	l.set("tlb.lookup_ns", "ns", nsPer(tlbFull-tlbIns, tlbLookups))
	l.set("tlb.insert_ns", "ns", nsPer(tlbIns, tlbInserts))
	l.set("cache.access_ns", "ns", nsPer(cacheT, cacheAcc))
	for _, w := range walkers {
		l.set("mmu.handle_miss_ns."+w.name, "ns", nsPer(walkT[w.name], walkN[w.name]))
		l.set("mmu.pte_loads_per_miss."+w.name, "count", float64(walkLoads[w.name])/float64(walkN[w.name]))
	}

	var news []float64
	for i := 0; i < 10; i++ {
		start := time.Now()
		if _, err := sim.NewEngine(sim.Default(sim.VMUltrix)); err != nil {
			return err
		}
		news = append(news, float64(time.Since(start).Nanoseconds())/1e3)
	}
	l.set("sim.new_engine_us", "us", median(news))

	// The wire codec over every result of the first pass.
	var encoded [][]byte
	start := time.Now()
	for _, pts := range b.first {
		for _, p := range pts {
			r := p.Result
			e, err := api.EncodePointResult(api.PointResult{Workload: r.Workload, Counters: &r.Counters, AvgChainLength: r.AvgChainLength, PerCore: r.PerCore})
			if err != nil {
				return err
			}
			encoded = append(encoded, e)
		}
	}
	l.set("api.encode_us", "us", float64(time.Since(start).Nanoseconds())/1e3/float64(len(encoded)))
	start = time.Now()
	for _, e := range encoded {
		if _, err := api.DecodePointResult(e); err != nil {
			return err
		}
	}
	l.set("api.decode_us", "us", float64(time.Since(start).Nanoseconds())/1e3/float64(len(encoded)))
	return nil
}

// timeEngine is the median time of NewEngine(cfg).Run(tr), construction
// excluded.
func timeEngine(t *tracer, parent int64, cfg sim.Config, tr *trace.Trace) (time.Duration, error) {
	var ds []float64
	for i := 0; i < replayReps; i++ {
		e, err := sim.NewEngine(cfg)
		if err != nil {
			return 0, err
		}
		sp := t.begin(parent, "ledger.sim.engine", cfg.VM+"/"+tr.Name)
		start := time.Now()
		_, err = e.Run(tr)
		ds = append(ds, float64(time.Since(start)))
		t.end(sp)
		if err != nil {
			return 0, err
		}
	}
	return time.Duration(median(ds)), nil
}

func ledgerMulticore(ctx context.Context, o *options, t *tracer, l ledger, tl *tally, b *multicoreBench) error {
	roots, err := overhead(ctx, t, l, tl, "multicore", b)
	if err != nil {
		return err
	}
	sweepLedger(t, l, roots, "multicore", o.workers)
	tl.add(b.check(ctx))

	sp := t.begin(0, "ledger.multicore", "")
	defer t.end(sp)
	// The kernel's input: the TLB-hierarchy misses of the four-core
	// trace, each core with its own TLBs.
	four := b.traces[len(b.traces)-1]
	const cores = 4
	type demand struct {
		asid uint8
		vpn  uint64
	}
	var demands []demand
	// fill replays the trace through fresh per-core TLBs, recording the
	// demands when rec is set, and returns the TLBs.
	fill := func(rec bool) (itlbs, dtlbs []*tlb.TLB) {
		itlbs, dtlbs = make([]*tlb.TLB, cores), make([]*tlb.TLB, cores)
		for c := range itlbs {
			itlbs[c], dtlbs[c] = newTLB(o.seed+uint64(2*c)), newTLB(o.seed+uint64(2*c+1))
		}
		for i := range four.Refs {
			r := &four.Refs[i]
			c, tag := i%cores, uint64(r.ASID)<<32
			if k := addr.VPN(r.PC) | tag; !itlbs[c].Lookup(k) {
				itlbs[c].Insert(k)
				if rec {
					demands = append(demands, demand{r.ASID, addr.VPN(r.PC)})
				}
			}
			if r.Kind != trace.None {
				if k := addr.VPN(r.Data) | tag; !dtlbs[c].Lookup(k) {
					dtlbs[c].Insert(k)
					if rec {
						demands = append(demands, demand{r.ASID, addr.VPN(r.Data)})
					}
				}
			}
		}
		return itlbs, dtlbs
	}
	fill(true)

	var victims []uint64 // tagged keys of lru's evictions
	for _, policy := range oskernel.Policies() {
		frames := mcFrames
		if policy == "first-touch" {
			frames = 0
		}
		var ds []float64
		var evictions int64
		for rep := 0; rep < replayReps; rep++ {
			k, err := oskernel.New(policy, frames, o.seed)
			if err != nil {
				return err
			}
			evictions = 0
			ksp := t.begin(sp, "ledger.oskernel.touch", policy)
			start := time.Now()
			for _, d := range demands {
				ev, have, _, err := k.Touch(d.asid, d.vpn)
				if err != nil {
					return fmt.Errorf("oskernel %s: %w", policy, err)
				}
				if have {
					evictions++
					if policy == "lru" && rep == 0 {
						victims = append(victims, uint64(ev.ASID)<<32|ev.VPN)
					}
				}
			}
			ds = append(ds, float64(time.Since(start)))
			t.end(ksp)
		}
		l.set("oskernel.touch_ns."+policy, "ns", median(ds)/float64(len(demands)))
		if _, skip := unmeasured["oskernel.evictions_per_touch."+policy]; !skip {
			l.set("oskernel.evictions_per_touch."+policy, "fraction", float64(evictions)/float64(len(demands)))
		}
	}

	// Shootdown fan-out: every lru victim evicted from every core's TLBs,
	// as the page stream left them.
	var ds []float64
	for rep := 0; rep < replayReps; rep++ {
		itlbs, dtlbs := fill(false)
		esp := t.begin(sp, "ledger.tlb.evict", "")
		start := time.Now()
		for _, v := range victims {
			for c := 0; c < cores; c++ {
				itlbs[c].Evict(v)
				dtlbs[c].Evict(v)
			}
		}
		ds = append(ds, float64(time.Since(start)))
		t.end(esp)
	}
	l.set("tlb.evict_ns", "ns", median(ds)/float64(2*cores*len(victims)))

	for i, cores := range mcCores {
		tr := b.traces[i]
		for _, policy := range oskernel.Policies() {
			cfg := mcConfig(cores, policy, o.seed)
			m, err := sim.NewMulticore(cfg)
			if err != nil {
				return err
			}
			csp := t.begin(sp, "ledger.sim.cluster", fmt.Sprintf("c%d/%s", cores, policy))
			start := time.Now()
			_, err = m.Run(tr)
			d := time.Since(start)
			t.end(csp)
			if err != nil {
				return err
			}
			l.set(fmt.Sprintf("sim.cluster_ns_per_ref.c%d.%s", cores, policy), "ns", nsPer(d, int64(len(tr.Refs))))
		}
	}

	// One core through the cluster against the single-core engine, on
	// the same first-touch configuration and trace.
	one := b.traces[0]
	cfg := mcConfig(1, "first-touch", o.seed)
	var cluster, engine []float64
	for rep := 0; rep < replayReps; rep++ {
		m, err := sim.NewMulticore(cfg)
		if err != nil {
			return err
		}
		start := time.Now()
		if _, err := m.Run(one); err != nil {
			return err
		}
		cluster = append(cluster, float64(time.Since(start)))
		e, err := sim.NewEngine(cfg)
		if err != nil {
			return err
		}
		start = time.Now()
		if _, err := e.Run(one); err != nil {
			return err
		}
		engine = append(engine, float64(time.Since(start)))
	}
	l.set("sim.cluster1_over_engine", "ratio", median(cluster)/median(engine))
	return nil
}

func ledgerServe(ctx context.Context, o *options, t *tracer, l ledger, tl *tally, b *serveBench) error {
	roots, err := overhead(ctx, t, l, tl, "serve", b)
	if err != nil {
		return err
	}
	// Every pass of overhead (warm-up included) polls for every job.
	polls := 0
	for _, sc := range b.clients {
		polls += sc.polls
	}
	jobs := (1 + 2*ledgerPasses) * len(b.clients) * len(b.cfgs) * (1 + serveHitReps)

	cold, hits := under(t, roots, "client.point.cold"), under(t, roots, "client.point.hit")
	l.set("client.upload_ms", "ms", median(under(t, roots, "client.upload")))
	l.set("client.submit_ms", "ms", median(under(t, roots, "client.submit")))
	l.set("client.wait_ms", "ms", median(under(t, roots, "client.wait")))
	l.set("client.polls_per_point", "count", float64(polls)/float64(jobs))
	l.set("server.point_p99_ms", "ms", quantile(cold, 0.99))
	l.set("server.point_p99_n", "count", float64(len(cold)))
	l.set("server.hit_p50_ms", "ms", median(hits))
	l.set("server.hit_p99_ms", "ms", quantile(hits, 0.99))
	l.set("server.hit_p99_n", "count", float64(len(hits)))
	l.set("server.stream_first_sample_ms", "ms", median(under(t, roots, "client.stream.first_sample")))
	// Every client streams a serveRefs-reference trace.
	streams := under(t, roots, "client.stream")
	l.set("server.stream_refs_per_s", "refs/s", float64(len(streams)*serveRefs)/(sum(streams)/1e3))

	hitRatio, err := cacheHitRatio(ctx, b.srv.url)
	if err != nil {
		return err
	}
	l.set("rescache.hit_ratio", "fraction", hitRatio)
	tl.add(b.check(ctx))
	l.set("client.stream_reuse_fail_frac", "fraction", streamReuseFailures(ctx, b))

	sp := t.begin(0, "ledger.serve", "")
	defer t.end(sp)
	var binT, shaT, streamT, feedT time.Duration
	var refs int64
	for _, sc := range b.clients {
		tr := sc.base
		refs += int64(len(tr.Refs))
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			return err
		}
		data, err := os.ReadFile(sc.streamPath)
		if err != nil {
			return err
		}
		var bin, sha, dec, feed []float64
		// timed appends the duration of f to *ds, under a span.
		timed := func(ds *[]float64, name string, f func() error) error {
			rsp := t.begin(sp, name, tr.Name)
			start := time.Now()
			err := f()
			*ds = append(*ds, float64(time.Since(start)))
			t.end(rsp)
			return err
		}
		for rep := 0; rep < replayReps; rep++ {
			s, err := sim.NewStreamer(b.streamCfg)
			if err == nil {
				err = errors.Join(
					timed(&bin, "ledger.trace.binary_decode", func() error {
						_, err := trace.ReadFrom(bytes.NewReader(buf.Bytes()))
						return err
					}),
					timed(&sha, "ledger.trace.sha256", func() error { trace.SHA256(tr); return nil }),
					timed(&dec, "ledger.trace.vmtrc_stream_decode", func() error { return drainStream(data) }),
					timed(&feed, "ledger.sim.stream_feed", func() error { return feedAll(s, tr) }),
				)
			}
			if err != nil {
				return err
			}
		}
		binT += time.Duration(median(bin))
		shaT += time.Duration(median(sha))
		streamT += time.Duration(median(dec))
		feedT += time.Duration(median(feed))
	}
	l.set("trace.binary_decode_ns_per_ref", "ns", nsPer(binT, refs))
	l.set("trace.sha256_ns_per_ref", "ns", nsPer(shaT, refs))
	l.set("trace.vmtrc_stream_decode_ns_per_ref", "ns", nsPer(streamT, refs))
	l.set("sim.stream_feed_ns_per_ref", "ns", nsPer(feedT, refs))
	return nil
}

// reuseStreams is how many streams each client sends back to back over
// keep-alive connections in the probe of connection reuse.
const reuseStreams = 400

// streamReuseFailures sends streams back to back from every client at
// once, over keep-alive connections and with no retries, and returns the
// share that failed. vmserved can cut off a request sent on a connection
// that a stream used before (connection reset, broken pipe); the timed
// passes avoid that by streaming on fresh connections, so this is where
// the defect, and a fix for it, shows.
func streamReuseFailures(ctx context.Context, b *serveBench) float64 {
	ctx = context.WithValue(ctx, reuseConns{}, true)
	var failed atomic.Int64
	var wg sync.WaitGroup
	for _, sc := range b.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < reuseStreams; i++ {
				if _, err := sc.c.Stream(ctx, b.streamCfg, sc.base, nil); err != nil {
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return float64(failed.Load()) / float64(reuseStreams*len(b.clients))
}

// drainStream decodes .vmtrc bytes with the incremental stream reader.
func drainStream(data []byte) error {
	rd, err := trace.NewVMTRCStreamReader(bytes.NewReader(data))
	if err != nil {
		return err
	}
	defer rd.Close()
	for {
		if _, err := rd.NextChunk(); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
	}
}

// feedAll replays tr through a streaming engine in .vmtrc-block chunks.
func feedAll(s sim.Streamer, tr *trace.Trace) error {
	if err := s.BeginStream(tr.Name, len(tr.Refs)); err != nil {
		return err
	}
	for i := 0; i < len(tr.Refs); i += trace.VMTRCBlockRecords {
		if _, err := s.Feed(tr.Refs[i:min(i+trace.VMTRCBlockRecords, len(tr.Refs))]); err != nil {
			return err
		}
	}
	_, err := s.EndStream()
	return err
}

// cacheHitRatio reads the daemon's result-cache counters from
// /debug/vars.
func cacheHitRatio(ctx context.Context, base string) (float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/debug/vars", nil)
	if err != nil {
		return 0, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var vars struct {
		VMServed struct {
			Cache struct {
				Hits   uint64 `json:"hits"`
				Misses uint64 `json:"misses"`
			} `json:"cache"`
		} `json:"vmserved"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		return 0, fmt.Errorf("decoding /debug/vars: %w", err)
	}
	c := vars.VMServed.Cache
	if c.Hits+c.Misses == 0 {
		return 0, fmt.Errorf("/debug/vars reports no cache lookups")
	}
	return float64(c.Hits) / float64(c.Hits+c.Misses), nil
}
