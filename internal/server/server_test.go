package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/machine"
	"repro/internal/rescache"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/workload"
)

// testTrace generates a small deterministic workload trace.
func testTrace(t *testing.T, refs int) *trace.Trace {
	t.Helper()
	p, err := workload.ByName("ijpeg")
	if err != nil {
		t.Fatal(err)
	}
	return workload.Generate(p, 5, refs)
}

// startServer spins up a Server over httptest and tears it down with
// the test.
func startServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck
	})
	return s, ts
}

// uploadTrace POSTs tr and returns its digest.
func uploadTrace(t *testing.T, base string, tr *trace.Trace) string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/traces", "application/octet-stream", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace upload: status %d", resp.StatusCode)
	}
	var up api.TraceUploaded
	if err := json.NewDecoder(resp.Body).Decode(&up); err != nil {
		t.Fatal(err)
	}
	if want := trace.SHA256(tr); up.SHA256 != want {
		t.Fatalf("server digest %s, local %s", up.SHA256, want)
	}
	if up.Refs != tr.Len() {
		t.Fatalf("server refs %d, local %d", up.Refs, tr.Len())
	}
	return up.SHA256
}

// submit POSTs a job and returns the raw response without asserting
// its status.
func submit(t *testing.T, base, sha string, cfgs []sim.Config) *http.Response {
	t.Helper()
	body, err := json.Marshal(api.SubmitRequest{APIVersion: api.Version, TraceSHA256: sha, Configs: cfgs})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// submitOK submits and asserts acceptance, returning the job ID.
func submitOK(t *testing.T, base, sha string, cfgs []sim.Config) string {
	t.Helper()
	resp := submit(t, base, sha, cfgs)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		var e api.Error
		json.NewDecoder(resp.Body).Decode(&e) //nolint:errcheck
		t.Fatalf("submit: status %d: %s", resp.StatusCode, e.Message)
	}
	var sr api.SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if sr.Points != len(cfgs) || sr.JobID == "" {
		t.Fatalf("submit response %+v", sr)
	}
	return sr.JobID
}

// waitJob polls until the job reports done, then returns the status.
func waitJob(t *testing.T, base, id string) api.JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st api.JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State == api.JobDone {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck: %+v", id, st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestSubmitPollMatchesLocalSimulation(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 2, QueueBound: 16})
	tr := testTrace(t, 5000)
	sha := uploadTrace(t, ts.URL, tr)

	cfgs := []sim.Config{sim.Default(sim.VMUltrix), sim.Default(sim.VMIntel)}
	cfgs[1].TLBEntries = 32
	id := submitOK(t, ts.URL, sha, cfgs)
	st := waitJob(t, ts.URL, id)
	if st.Failed != 0 || st.Done != 2 || len(st.Results) != 2 {
		t.Fatalf("status %+v", st)
	}

	local := sweep.Run(tr, cfgs, 1)
	for i, r := range st.Results {
		if r.Error != "" {
			t.Fatalf("point %d: %s", i, r.Error)
		}
		if r.Counters == nil || *r.Counters != local[i].Result.Counters {
			t.Errorf("point %d counters diverge from local simulation", i)
		}
		if r.AvgChainLength != local[i].Result.AvgChainLength {
			t.Errorf("point %d chain length diverges", i)
		}
		if r.Workload != local[i].Result.Workload {
			t.Errorf("point %d workload %q vs local %q", i, r.Workload, local[i].Result.Workload)
		}
	}
}

func TestUnknownTraceAndJobAre404(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 1, QueueBound: 4})
	resp := submit(t, ts.URL, "deadbeef", []sim.Config{sim.Default(sim.VMBase)})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("submit against unknown trace: status %d, want 404", resp.StatusCode)
	}
	r2, err := http.Get(ts.URL + "/v1/traces/deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusNotFound {
		t.Fatalf("GET unknown trace: status %d, want 404", r2.StatusCode)
	}
	r3, err := http.Get(ts.URL + "/v1/jobs/job-999")
	if err != nil {
		t.Fatal(err)
	}
	r3.Body.Close()
	if r3.StatusCode != http.StatusNotFound {
		t.Fatalf("GET unknown job: status %d, want 404", r3.StatusCode)
	}
}

func TestInvalidSubmissionsAre400(t *testing.T) {
	s, ts := startServer(t, Config{Workers: 1, QueueBound: 4})
	sha := uploadTrace(t, ts.URL, testTrace(t, 200))

	// Wrong protocol version.
	body, _ := json.Marshal(api.SubmitRequest{APIVersion: 99, TraceSHA256: sha, Configs: []sim.Config{sim.Default(sim.VMBase)}})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("version mismatch: status %d, want 400", resp.StatusCode)
	}
	// Invalid configuration is the submitter's error, up front.
	resp = submit(t, ts.URL, sha, []sim.Config{sim.Default("nonesuch")})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid config: status %d, want 400", resp.StatusCode)
	}
	// Empty jobs are refused.
	resp = submit(t, ts.URL, sha, nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty job: status %d, want 400", resp.StatusCode)
	}
	// Cache and TLB sizes over their caps are refused, and build
	// nothing: admitting one allocates less than one of the arrays its
	// sizes call for would take.
	for _, tc := range []struct {
		name   string
		mutate func(*sim.Config)
	}{
		{"l1", func(c *sim.Config) { c.L1SizeBytes, c.L2SizeBytes = 2*sim.MaxCacheBytes, 2*sim.MaxCacheBytes }},
		{"l2", func(c *sim.Config) { c.L2SizeBytes = 2 * sim.MaxCacheBytes }},
		{"tlb", func(c *sim.Config) { c.TLBEntries = 2 * machine.MaxTLBEntries }},
		{"tlb2", func(c *sim.Config) { c.TLB2Entries = 2 * machine.MaxTLBEntries }},
	} {
		cfg := sim.Default(sim.VMUltrix)
		tc.mutate(&cfg)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		resp = submit(t, ts.URL, sha, []sim.Config{cfg})
		resp.Body.Close()
		runtime.ReadMemStats(&after)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s over its cap: status %d, want 400", tc.name, resp.StatusCode)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s over its cap: admission allocated %d bytes", tc.name, grew)
		}
	}
	if q := s.queued.Load(); q != 0 {
		t.Fatalf("%d points queued after refusals", q)
	}
}

func TestFloodedServerShedsLoadWith429(t *testing.T) {
	// Deterministic flood: before submitting, the test opens a
	// singleflight flight in the shared cache under the exact key of the
	// fill job's first point and holds it. The server's only worker
	// attaches to that flight and blocks, so the remaining 3 of 4
	// accepted points provably stay queued — no timing assumptions —
	// and a 2-point probe (3+2 > 4) must be refused with 429 +
	// Retry-After, not buffered.
	cache, err := rescache.New("", 0)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1, QueueBound: 4, Cache: cache})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	tr := testTrace(t, 2000)
	sha := uploadTrace(t, ts.URL, tr)

	fill := make([]sim.Config, 4)
	for i := range fill {
		fill[i] = sim.Default(sim.VMUltrix)
		fill[i].Seed = uint64(i + 1) // distinct keys: no collapse among fill points
	}
	entered := make(chan struct{})
	release := make(chan struct{})
	holderDone := make(chan struct{})
	stand, err := api.EncodePointResult(api.PointResult{Workload: "stand-in"})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		defer close(holderDone)
		cache.Do(api.Key(sha, fill[0]), func() ([]byte, error) { //nolint:errcheck
			close(entered)
			<-release
			return stand, nil
		})
	}()
	<-entered // the flight exists before the server sees the job

	id := submitOK(t, ts.URL, sha, fill)

	probe := []sim.Config{sim.Default(sim.VMIntel), sim.Default(sim.VMIntel)}
	probe[1].Seed = 99
	got := submit(t, ts.URL, sha, probe)
	if got.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("flooded server answered %d, want 429", got.StatusCode)
	}
	defer got.Body.Close()
	ra := got.Header.Get("Retry-After")
	if ra == "" {
		t.Fatal("429 without Retry-After")
	}
	if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Fatalf("Retry-After %q is not a positive integer", ra)
	}
	var e api.Error
	if err := json.NewDecoder(got.Body).Decode(&e); err != nil || e.Message == "" {
		t.Fatalf("429 body: %q, %v", e.Message, err)
	}

	// An over-bound single job is a client error, not backpressure.
	big := make([]sim.Config, 5)
	for i := range big {
		big[i] = sim.Default(sim.VMBase)
	}
	resp := submit(t, ts.URL, sha, big)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized job: status %d, want 413", resp.StatusCode)
	}

	// Release the held flight: the worker unblocks (its point adopts the
	// stand-in payload via singleflight), the queue drains, and capacity
	// returns.
	close(release)
	<-holderDone
	st := waitJob(t, ts.URL, id)
	if st.Failed != 0 {
		t.Fatalf("fill job failed: %+v", st)
	}
	if !st.Results[0].Cached || st.Results[0].Workload != "stand-in" {
		t.Fatalf("worker did not share the held flight: %+v", st.Results[0])
	}
	id2 := submitOK(t, ts.URL, sha, probe)
	if st := waitJob(t, ts.URL, id2); st.Failed != 0 {
		t.Fatalf("post-flood job failed: %+v", st)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestWarmCacheSecondJobIsAllCached(t *testing.T) {
	cache, err := rescache.New(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	srv, ts := startServer(t, Config{Workers: 2, QueueBound: 16, Cache: cache})
	tr := testTrace(t, 5000)
	sha := uploadTrace(t, ts.URL, tr)
	cfgs := []sim.Config{sim.Default(sim.VMUltrix), sim.Default(sim.VMIntel), sim.Default(sim.VMBase)}

	cold := waitJob(t, ts.URL, submitOK(t, ts.URL, sha, cfgs))
	if cold.Cached != 0 || cold.Failed != 0 {
		t.Fatalf("cold run: %+v", cold)
	}
	simulatedAfterCold := srv.simulated.Load()
	if simulatedAfterCold != uint64(len(cfgs)) {
		t.Fatalf("cold run simulated %d points, want %d", simulatedAfterCold, len(cfgs))
	}

	warm := waitJob(t, ts.URL, submitOK(t, ts.URL, sha, cfgs))
	if warm.Cached != len(cfgs) {
		t.Fatalf("warm run cached %d of %d points: %+v", warm.Cached, len(cfgs), warm)
	}
	if srv.simulated.Load() != simulatedAfterCold {
		t.Fatal("warm run re-simulated cached points")
	}
	for i := range cfgs {
		if *warm.Results[i].Counters != *cold.Results[i].Counters {
			t.Fatalf("point %d: cached counters differ from cold counters", i)
		}
		if !warm.Results[i].Cached {
			t.Fatalf("point %d not marked cached", i)
		}
	}
}

func TestQuarantinedPointReportsCategoryOthersSucceed(t *testing.T) {
	// A point that exhausts its deadline is reported with the simerr
	// taxonomy category while its siblings complete — the sweep driver's
	// quarantine semantics, through the service.
	_, ts := startServer(t, Config{Workers: 2, QueueBound: 8, PointTimeout: time.Nanosecond * 1, Retries: 0})
	sha := uploadTrace(t, ts.URL, testTrace(t, 50000))
	st := waitJob(t, ts.URL, submitOK(t, ts.URL, sha, []sim.Config{sim.Default(sim.VMUltrix)}))
	if st.Failed != 1 {
		t.Fatalf("nanosecond deadline not exceeded: %+v", st)
	}
	if st.Results[0].Category != "timeout" {
		t.Fatalf("category %q, want timeout", st.Results[0].Category)
	}
	if st.Results[0].Error == "" {
		t.Fatal("failed point carries no error text")
	}
}

func TestGracefulDrainFinishesQueuedWorkAndRefusesNew(t *testing.T) {
	s := New(Config{Workers: 1, QueueBound: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	tr := testTrace(t, 20000)
	sha := uploadTrace(t, ts.URL, tr)
	cfgs := make([]sim.Config, 4)
	for i := range cfgs {
		cfgs[i] = sim.Default(sim.VMUltrix)
		cfgs[i].Seed = uint64(100 + i)
	}
	id := submitOK(t, ts.URL, sha, cfgs)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(1)
	var shutErr error
	go func() {
		defer wg.Done()
		shutErr = s.Shutdown(ctx)
	}()

	// While draining, new submissions bounce with 503.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp := submit(t, ts.URL, sha, []sim.Config{sim.Default(sim.VMBase)})
		code := resp.StatusCode
		resp.Body.Close()
		if code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("draining server still accepting jobs (status %d)", code)
		}
		time.Sleep(time.Millisecond)
	}

	wg.Wait()
	if shutErr != nil {
		t.Fatalf("drain: %v", shutErr)
	}
	// Every accepted point ran to completion despite the drain.
	st := waitJob(t, ts.URL, id)
	if st.Done != 4 || st.Failed != 0 {
		t.Fatalf("drained job: %+v", st)
	}
}

func TestShutdownDeadlineCancelsInflight(t *testing.T) {
	s := New(Config{Workers: 1, QueueBound: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	sha := uploadTrace(t, ts.URL, testTrace(t, 500000))
	id := submitOK(t, ts.URL, sha, []sim.Config{sim.Default(sim.VMUltrix)})

	// An immediate deadline: the in-flight point is cancelled
	// cooperatively and Shutdown still returns (with ctx's error).
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Shutdown(ctx); err != context.Canceled {
		t.Fatalf("Shutdown = %v, want context.Canceled", err)
	}
	// The point finished — as a cancellation failure, not a hang.
	st := waitJob(t, ts.URL, id)
	if st.Done != 1 {
		t.Fatalf("cancelled point never resolved: %+v", st)
	}
	if st.Failed == 1 && st.Results[0].Category == "" {
		t.Fatalf("cancelled point has no category: %+v", st.Results[0])
	}
}

func TestHealthAndMetrics(t *testing.T) {
	cache, _ := rescache.New("", 0)
	s, ts := startServer(t, Config{Workers: 1, QueueBound: 4, Cache: cache})
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h api.Health
	err = json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if err != nil || h.Status != "ok" || h.Engine == "" {
		t.Fatalf("healthz = %+v, %v", h, err)
	}
	m := s.metrics()
	for _, key := range []string{"engine", "queue_depth", "queue_bound", "inflight", "workers", "cache"} {
		if _, ok := m[key]; !ok {
			t.Errorf("metrics missing %q", key)
		}
	}
}

func TestTraceStoreEvictsLRUWithoutBreakingJobs(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 1, QueueBound: 8, MaxTraces: 2})
	t1 := testTrace(t, 1000)
	p, _ := workload.ByName("gcc")
	t2 := workload.Generate(p, 6, 1000)
	p3, _ := workload.ByName("vortex")
	t3 := workload.Generate(p3, 7, 1000)

	sha1 := uploadTrace(t, ts.URL, t1)
	sha2 := uploadTrace(t, ts.URL, t2)
	id := submitOK(t, ts.URL, sha1, []sim.Config{sim.Default(sim.VMBase)}) // touches t1; job holds its own reference
	uploadTrace(t, ts.URL, t3)                                             // evicts t2, the least recently used

	for sha, want := range map[string]int{sha1: http.StatusOK, sha2: http.StatusNotFound} {
		resp, err := http.Get(fmt.Sprintf("%s/v1/traces/%s", ts.URL, sha))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("GET trace %s: status %d, want %d", sha, resp.StatusCode, want)
		}
	}
	// The in-flight job is unaffected by evictions.
	if st := waitJob(t, ts.URL, id); st.Failed != 0 {
		t.Fatalf("job broken by trace eviction: %+v", st)
	}
}

// TestTraceUploadAllFormats: the upload endpoint auto-detects every
// format the CLIs read. The same reference stream posted as classic
// binary and as .vmtrc blocks must land under the same digest (the
// digest is over canonical serialized form, not the wire bytes), and
// Dinero text must be accepted too.
func TestTraceUploadAllFormats(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 1, QueueBound: 16})
	tr := testTrace(t, 4000)
	wantSHA := trace.SHA256(tr)

	post := func(body *bytes.Buffer) api.TraceUploaded {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/traces", "application/octet-stream", body)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("upload status %d", resp.StatusCode)
		}
		var up api.TraceUploaded
		if err := json.NewDecoder(resp.Body).Decode(&up); err != nil {
			t.Fatal(err)
		}
		return up
	}

	var bin bytes.Buffer
	if _, err := tr.WriteTo(&bin); err != nil {
		t.Fatal(err)
	}
	if up := post(&bin); up.SHA256 != wantSHA || up.Refs != tr.Len() {
		t.Fatalf("binary upload %+v, want sha %s refs %d", up, wantSHA, tr.Len())
	}

	var vmtrc bytes.Buffer
	if _, err := tr.WriteVMTRC(&vmtrc); err != nil {
		t.Fatal(err)
	}
	if up := post(&vmtrc); up.SHA256 != wantSHA || up.Refs != tr.Len() {
		t.Fatalf(".vmtrc upload %+v, want sha %s refs %d — vmtrc decode is not ref-identical", up, wantSHA, tr.Len())
	}

	din := bytes.NewBufferString("0 4000\n2 1000\n0 4008\n1 2000\n")
	if up := post(din); up.Refs == 0 {
		t.Fatalf("dinero upload rejected: %+v", up)
	}
}

// TestTraceUploadRejectsGarbage: undetectable bytes must come back as
// a 400, not a panic or a silently-empty trace.
func TestTraceUploadRejectsGarbage(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 1, QueueBound: 16})
	resp, err := http.Post(ts.URL+"/v1/traces", "application/octet-stream",
		bytes.NewBufferString("MMUTRC99 this is no trace"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage upload status %d, want 400", resp.StatusCode)
	}
}

// TestMultiWorkerServerMatchesSerial: the same campaign submitted to a
// 1-worker daemon and a 4-worker daemon must produce identical results
// point for point — the job queue reassembles by index, never by
// completion order.
func TestMultiWorkerServerMatchesSerial(t *testing.T) {
	tr := testTrace(t, 8000)
	cfgs := make([]sim.Config, 0, 8)
	for _, vm := range []string{sim.VMUltrix, sim.VMIntel} {
		for _, l1 := range []int{1 << 10, 4 << 10, 16 << 10, 64 << 10} {
			c := sim.Default(vm)
			c.L1SizeBytes = l1
			cfgs = append(cfgs, c)
		}
	}

	results := make([][]api.PointResult, 2)
	for i, workers := range []int{1, 4} {
		_, ts := startServer(t, Config{Workers: workers, QueueBound: 64})
		sha := uploadTrace(t, ts.URL, tr)
		st := waitJob(t, ts.URL, submitOK(t, ts.URL, sha, cfgs))
		if st.Failed != 0 || st.Done != len(cfgs) {
			t.Fatalf("workers=%d status %+v", workers, st)
		}
		results[i] = st.Results
	}
	for i := range cfgs {
		serial, parallel := results[0][i], results[1][i]
		if serial.Error != "" || parallel.Error != "" {
			t.Fatalf("point %d errored: %q / %q", i, serial.Error, parallel.Error)
		}
		if *serial.Counters != *parallel.Counters {
			t.Errorf("point %d: 4-worker counters diverge from 1-worker", i)
		}
		if serial.AvgChainLength != parallel.AvgChainLength || serial.Workload != parallel.Workload {
			t.Errorf("point %d: summary fields diverge across worker counts", i)
		}
	}
}
