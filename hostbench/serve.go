package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/api"
	"repro/internal/client"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The serve workload: a closed loop of clients against a fresh loopback
// vmserved with a memory-only result cache. Each pass, every client
// uploads a new trace, submits a single-point job per serveColdConfigs
// entry (the server must simulate it), resubmits each of them
// serveHitReps times (answered from the cache), and streams its trace as
// .vmtrc serveStreams times with a live timeline.
const (
	serveRefs    = 50_000
	serveHitReps = 2
	serveStreams = 2
	// servePoll is the job-poll interval: far below a cold point's
	// latency, and a hit is usually done by the first poll, which Wait
	// sends at once.
	servePoll = 200 * time.Microsecond
	// serveSampleEvery gives each stream about a dozen live rows.
	serveSampleEvery = 2_000
)

// serveBenches gives client i the benchmark serveBenches[i%2].
var serveBenches = []string{"gcc", "vortex"}

// client.Client sends every request through http.DefaultTransport, so the
// benchmark routes there. Each /v1/stream request gets a connection of
// its own, closed after the stream, as in `vmsim -stream`, which streams
// once per process. Jobs and uploads share keep-alive connections, as in
// `vmsweep -remote` and the coordinator. A stream whose context carries
// reuseConns goes over the shared connections instead; the ledger uses
// that to measure how often vmserved cuts off a request sent on a
// connection a stream used before.
type reuseConns struct{}

type streamRouter struct{ shared, fresh http.RoundTripper }

func (t streamRouter) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.URL.Path == "/v1/stream" && r.Context().Value(reuseConns{}) == nil {
		return t.fresh.RoundTrip(r)
	}
	return t.shared.RoundTrip(r)
}

func init() {
	fresh := http.DefaultTransport.(*http.Transport).Clone()
	fresh.DisableKeepAlives = true
	http.DefaultTransport = streamRouter{shared: http.DefaultTransport, fresh: fresh}
}

// serveColdConfigs are the configurations each client submits cold:
// every paper VM (BASE included) at every paper L1 size.
func serveColdConfigs(seed uint64) []sim.Config {
	var cfgs []sim.Config
	for _, vm := range sim.PaperVMs() {
		for _, l1 := range sweep.PaperL1Sizes() {
			c := sim.Default(vm)
			c.L1SizeBytes, c.Seed = l1, seed
			cfgs = append(cfgs, c)
		}
	}
	return cfgs
}

func serveStreamConfig(seed uint64) sim.Config {
	c := sim.Default(sim.VMUltrix)
	c.Seed, c.SampleEvery = seed, serveSampleEvery
	return c
}

type serveClient struct {
	c          *client.Client
	base       *trace.Trace // uploaded each pass under a new name, and streamed
	streamPath string       // base encoded as .vmtrc, for the ledger's decoder replay
	polls      int          // Wait polls, all passes

	first       []api.PointResult // the first pass's cold results
	firstStream *client.StreamOutcome
}

// clientObs is what one client saw in one pass.
type clientObs struct {
	cold        []time.Duration // cold-job latencies
	simulated   int64           // references the server simulated for this client
	ops         tally
	coldResults []api.PointResult
}

type serveBench struct {
	o         *options
	dir       string
	prep      prepStats
	srv       *daemon
	clients   []*serveClient
	cfgs      []sim.Config
	streamCfg sim.Config
	passes    int
}

func setupServe(ctx context.Context, o *options, t *tracer) (*serveBench, error) {
	sp := t.begin(0, "setup.serve", "")
	defer t.end(sp)
	dir, err := os.MkdirTemp(o.work, "serve-")
	if err != nil {
		return nil, err
	}
	b := &serveBench{o: o, dir: dir, cfgs: serveColdConfigs(o.seed), streamCfg: serveStreamConfig(o.seed)}
	for i := 0; i < o.clients; i++ {
		p, err := workload.ByName(serveBenches[i%len(serveBenches)])
		if err != nil {
			b.close()
			return nil, err
		}
		name := fmt.Sprintf("serve-c%d", i)
		tr, path, err := prepareTrace(t, sp, &b.prep, dir, name, func() (*trace.Trace, error) {
			return workload.Generate(p, o.seed+uint64(i), serveRefs), nil
		})
		if err != nil {
			b.close()
			return nil, err
		}
		b.clients = append(b.clients, &serveClient{base: tr, streamPath: path})
	}

	// Two stream slots per client: the daemon frees a stream's slot only
	// after the final event is out, so a client's next stream can arrive
	// while its previous one still holds a slot.
	st := t.begin(sp, "server.start", "")
	start := time.Now()
	b.srv, err = startDaemon(ctx, o.vmserved, "-addr", "127.0.0.1:0",
		"-workers", strconv.Itoa(o.workers), "-max-streams", strconv.Itoa(2*o.clients))
	b.prep.start = time.Since(start)
	t.end(st)
	if err != nil {
		b.close()
		return nil, err
	}
	for _, sc := range b.clients {
		sc.c = client.New(b.srv.url)
		// No hidden retries: a transient failure (a connection error, a
		// 429 or 5xx, a stream cut short) fails its operation, and no
		// backoff sleep lands in the timed window.
		sc.c.Retries = 0
	}

	// The warm point: a trace and configuration no pass uses, so every
	// pass's cold jobs stay cold.
	warm := t.begin(sp, "setup.warm_point", "")
	start = time.Now()
	err = warmPoint(ctx, b.clients[0].c, b.clients[0].base, b.cfgs[0])
	b.prep.warm = time.Since(start)
	t.end(warm)
	if err != nil {
		b.close()
		return nil, fmt.Errorf("warm point: %w", err)
	}
	return b, nil
}

func warmPoint(ctx context.Context, c *client.Client, base *trace.Trace, cfg sim.Config) error {
	tr := &trace.Trace{Name: "warm", Refs: base.Refs[:len(base.Refs)/4]}
	sha, err := c.EnsureTrace(ctx, tr)
	if err != nil {
		return err
	}
	sr, err := c.Submit(ctx, sha, []sim.Config{cfg})
	if err != nil {
		return err
	}
	st, err := c.Wait(ctx, sr.JobID, servePoll, nil)
	if err == nil && (len(st.Results) != 1 || st.Results[0].Error != "") {
		err = fmt.Errorf("unexpected status %+v", st)
	}
	return err
}

func (b *serveBench) pass(ctx context.Context, t *tracer) (passStats, error) {
	sp := t.begin(0, "pass.serve", "")
	obs := make([]clientObs, len(b.clients))
	errs := make([]error, len(b.clients))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range b.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			obs[i], errs[i] = b.runClient(ctx, t, sp, i)
		}()
	}
	wg.Wait()
	ps := passStats{wall: time.Since(start)}
	t.end(sp)
	if err := errors.Join(errs...); err != nil {
		return ps, err
	}
	for i, ob := range obs {
		ps.refs += ob.simulated
		ps.points = append(ps.points, ob.cold...)
		ps.ops.add(ob.ops)
		sc := b.clients[i]
		if sc.first == nil { // the first pass whose upload succeeded
			sc.first = ob.coldResults
			continue
		}
		for j, r := range ob.coldResults {
			ps.ops.ok(samePoint(r, sc.first[j]), "serve client %d pass %d config %d: result differs from the first pass", i, b.passes, j)
		}
	}
	b.passes++
	return ps, nil
}

// runClient runs one client's script for the current pass. Request
// failures are failed operations; only cancellation aborts the pass.
func (b *serveBench) runClient(ctx context.Context, t *tracer, parent int64, ci int) (clientObs, error) {
	sc := b.clients[ci]
	var ob clientObs
	sp := t.begin(parent, "client.session", strconv.Itoa(ci))
	defer t.end(sp)

	tr := &trace.Trace{Name: fmt.Sprintf("serve-c%d-p%d", ci, b.passes), Refs: sc.base.Refs}
	up := t.begin(sp, "client.upload", tr.Name)
	sha, err := sc.c.EnsureTrace(ctx, tr)
	t.end(up)
	ob.ops.ok(err == nil, "serve client %d upload: %v", ci, err)
	if err != nil {
		return ob, ctx.Err()
	}

	ob.coldResults = make([]api.PointResult, len(b.cfgs))
	for j, cfg := range b.cfgs {
		r, lat, err := b.point(ctx, t, sp, sc, sha, cfg, "client.point.cold")
		ob.ops.ok(err == nil && r.Error == "" && !r.Cached, "serve client %d cold config %d: err %v, point error %q, cached %v", ci, j, err, r.Error, r.Cached)
		ob.cold = append(ob.cold, lat)
		ob.coldResults[j] = r
		ob.simulated += int64(len(tr.Refs))
	}
	for rep := 0; rep < serveHitReps; rep++ {
		for j, cfg := range b.cfgs {
			r, _, err := b.point(ctx, t, sp, sc, sha, cfg, "client.point.hit")
			ob.ops.ok(err == nil && r.Cached && samePoint(r, ob.coldResults[j]), "serve client %d repeat of config %d: err %v, cached %v", ci, j, err, r.Cached)
		}
	}
	for s := 0; s < serveStreams; s++ {
		out, err := b.stream(ctx, t, sp, sc)
		ob.ops.ok(err == nil, "serve client %d stream: %v", ci, err)
		if err != nil {
			continue
		}
		ob.simulated += int64(out.Refs)
		if sc.firstStream == nil {
			sc.firstStream = out
			continue
		}
		ob.ops.ok(sameStream(out, sc.firstStream), "serve client %d stream: outcome differs from the first stream", ci)
	}
	return ob, ctx.Err()
}

// point submits one single-point job and waits for it; the latency is
// submit to done as the client sees it.
func (b *serveBench) point(ctx context.Context, t *tracer, parent int64, sc *serveClient, sha string, cfg sim.Config, name string) (api.PointResult, time.Duration, error) {
	sp := t.begin(parent, name, "")
	defer t.end(sp)
	start := time.Now()
	s := t.begin(sp, "client.submit", "")
	sr, err := sc.c.Submit(ctx, sha, []sim.Config{cfg})
	t.end(s)
	if err != nil {
		return api.PointResult{}, 0, err
	}
	w := t.begin(sp, "client.wait", sr.JobID)
	st, err := sc.c.Wait(ctx, sr.JobID, servePoll, func(api.JobStatus) { sc.polls++ })
	t.end(w)
	lat := time.Since(start)
	if err != nil {
		return api.PointResult{}, lat, err
	}
	if len(st.Results) != 1 {
		return api.PointResult{}, lat, fmt.Errorf("job %s: %d results for one point", sr.JobID, len(st.Results))
	}
	return st.Results[0], lat, nil
}

// stream runs the client's trace through /v1/stream with client.Stream,
// which encodes it to .vmtrc on the fly, as `vmsim -stream` does.
func (b *serveBench) stream(ctx context.Context, t *tracer, parent int64, sc *serveClient) (*client.StreamOutcome, error) {
	sp := t.begin(parent, "client.stream", sc.base.Name)
	start := time.Now()
	var first time.Time
	out, err := sc.c.Stream(ctx, b.streamCfg, sc.base, func(sim.TimelineSample) {
		if first.IsZero() {
			first = time.Now()
		}
	})
	t.end(sp)
	if err == nil && !first.IsZero() {
		t.record(sp, "client.stream.first_sample", sc.base.Name, start, first)
	}
	return out, err
}

func samePoint(a, b api.PointResult) bool {
	return a.Error == "" && b.Error == "" &&
		sameResult(client.ToSweepPoint(sim.Config{}, a).Result, client.ToSweepPoint(sim.Config{}, b).Result)
}

func sameStream(a, b *client.StreamOutcome) bool {
	if !samePoint(a.Result, b.Result) || a.Digest != b.Digest || a.Refs != b.Refs || len(a.Timeline) != len(b.Timeline) {
		return false
	}
	for i := range a.Timeline {
		if a.Timeline[i] != b.Timeline[i] {
			return false
		}
	}
	return true
}

// check recomputes every cold point and every stream locally and
// serially: each cold result must equal Simulate, each stream's result,
// digest and timeline the batch run's.
func (b *serveBench) check(context.Context) tally {
	var t tally
	for i, sc := range b.clients {
		for j, cfg := range b.cfgs {
			if j >= len(sc.first) {
				break
			}
			want, err := sim.Simulate(cfg, sc.base)
			got := client.ToSweepPoint(cfg, sc.first[j]).Result
			t.ok(err == nil && sameResult(got, want), "serve client %d config %d: server result differs from local Simulate (err %v)", i, j, err)
		}
		if sc.firstStream == nil {
			continue
		}
		e, err := sim.NewEngine(b.streamCfg)
		var want *sim.Result
		if err == nil {
			want, err = e.Run(sc.base)
		}
		ok := err == nil && sameResult(client.ToSweepPoint(b.streamCfg, sc.firstStream.Result).Result, want) &&
			sc.firstStream.Digest == e.Digest() && len(sc.firstStream.Timeline) == len(want.Timeline)
		if ok {
			for k := range want.Timeline {
				ok = ok && want.Timeline[k] == sc.firstStream.Timeline[k]
			}
		}
		t.ok(ok, "serve client %d stream: result, digest or timeline differs from the local batch run (err %v)", i, err)
	}
	return t
}

func (b *serveBench) prepared() prepStats { return b.prep }

func (b *serveBench) pid() string { return strconv.Itoa(b.srv.cmd.Process.Pid) }

func (b *serveBench) close() error {
	var err error
	if b.srv != nil {
		err = b.srv.stop()
	}
	return errors.Join(err, os.RemoveAll(b.dir))
}

// daemon is a vmserved child process.
type daemon struct {
	cmd  *exec.Cmd
	url  string
	done chan struct{} // closed when the child's stderr reaches EOF
}

// startDaemon starts vmserved and waits for its "listening on" line.
func startDaemon(ctx context.Context, bin string, args ...string) (*daemon, error) {
	cmd := exec.Command(bin, args...)
	// Should the benchmark die without stopping it, the daemon gets
	// SIGTERM and drains.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	var tail []string // the first log lines, for a failed start
	go func() {
		defer close(d.done)
		sent := false
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "vmserved: listening on "); ok && !sent {
				addr <- strings.Fields(rest)[0]
				sent = true
			} else if !sent && len(tail) < 20 {
				tail = append(tail, line)
			}
		}
		io.Copy(io.Discard, stderr) //nolint:errcheck // keep draining until the child exits
		if !sent {
			close(addr)
		}
	}()
	timer := time.NewTimer(30 * time.Second)
	defer timer.Stop()
	select {
	case a, ok := <-addr:
		if ok {
			d.url = "http://" + a
			return d, nil
		}
		<-d.done
		err = fmt.Errorf("vmserved exited before listening: %s", strings.Join(tail, "; "))
	case <-timer.C:
		err = errors.New("vmserved did not report its address within 30s")
	case <-ctx.Done():
		err = ctx.Err()
	}
	d.stop() //nolint:errcheck // already failing
	return nil, err
}

// stop sends SIGTERM (vmserved drains and exits), escalates to SIGKILL
// after 30s, and waits for the process. Its stderr reaches EOF when it
// exits; Wait comes after that, as exec.Cmd requires.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	var killed error
	select {
	case <-d.done:
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill() //nolint:errcheck // Wait below reports the outcome
		<-d.done
		killed = errors.New("vmserved did not drain within 30s; killed")
	}
	return errors.Join(killed, d.cmd.Wait())
}
