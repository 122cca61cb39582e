package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
)

// vmservedBin is a vmserved built from this checkout for the tests.
var vmservedBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "hostbench-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	vmservedBin = filepath.Join(dir, "vmserved")
	if out, err := exec.Command("go", "build", "-o", vmservedBin, "repro/cmd/vmserved").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building vmserved: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// contract is the part of BENCHMARK.json the output is held to.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []named `json:"end_to_end"`
	PerLayer []named `json:"per_layer"`
}

type named struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// runBench runs the command in process and parses its last stdout line.
func runBench(t *testing.T, args ...string) (int, result, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append([]string{"-work", t.TempDir(), "-vmserved", vmservedBin}, args...)
	code := run(context.Background(), args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("exit %d, last stdout line %q: %v\nstderr:\n%s", code, lines[len(lines)-1], err, stderr.String())
	}
	return code, res, stderr.String()
}

// checkMetrics requires exactly the contract's names, with its units and
// positive values; a failure share may be 0 and a difference of timings
// may be negative.
func checkMetrics(t *testing.T, got map[string]metric, want []named, skip map[string]string) {
	t.Helper()
	n := 0
	for _, m := range want {
		if _, ok := skip[m.Name]; ok {
			continue
		}
		n++
		g, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", m.Name)
		case g.Unit != m.Unit:
			t.Errorf("metric %s in %q, want %q", m.Name, g.Unit, m.Unit)
		case m.Name == "client.stream_reuse_fail_frac":
			// 0 when vmserved cuts off no request on a reused connection.
			if !(g.Value >= 0 && g.Value <= 1) {
				t.Errorf("metric %s = %v, want a fraction", m.Name, g.Value)
			}
		case !(g.Value > 0) && !strings.HasPrefix(m.Name, "sim.glue_ns_per_ref."):
			t.Errorf("metric %s = %v, want > 0", m.Name, g.Value)
		}
	}
	if len(got) != n {
		t.Errorf("%d metrics, want %d", len(got), n)
	}
}

func TestShortRunReportsEveryEndToEndMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	c := readContract(t)
	for _, w := range c.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			code, res, stderr := runBench(t, "-workload", w.Name, "-seconds", "0.1")
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("exit %d, result %+v\nstderr:\n%s", code, res, stderr)
			}
			checkMetrics(t, res.Metrics, c.EndToEnd, nil)
		})
	}
}

func TestOtherSeedChecksAgainstLocalRecompute(t *testing.T) {
	code, res, stderr := runBench(t, "-workload", "serve", "-seconds", "0.1", "-seed", "7")
	if code != 0 || !res.Correct || res.Failed != 0 {
		t.Fatalf("exit %d, result %+v\nstderr:\n%s", code, res, stderr)
	}
}

func TestTamperedCanaryFailsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the paper workload")
	}
	saved := paperCanary["vortex"]
	paperCanary["vortex"] = strings.Repeat("0", 64)
	t.Cleanup(func() { paperCanary["vortex"] = saved })
	code, res, stderr := runBench(t, "-workload", "paper", "-seconds", "0.1")
	if code != 1 || res.Correct || res.Failed != 1 || !strings.Contains(stderr, "FAILED: paper vortex") {
		t.Fatalf("tampered canary: exit %d, result correct=%v failed=%d\nstderr:\n%s", code, res.Correct, res.Failed, stderr)
	}
}

func TestServeRejectsPrewarmedCache(t *testing.T) {
	o := &options{seed: defaultSeed, workers: 1, clients: 1, vmserved: vmservedBin, work: t.TempDir()}
	ctx := context.Background()
	b, err := setupServe(ctx, o, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	p, err := b.pass(ctx, nil)
	if err != nil || len(p.ops.failures) != 0 {
		t.Fatalf("first pass: err %v, failures %v", err, p.ops.failures)
	}
	// Replaying pass 0 uploads the same trace again, so every "cold" job
	// is already in the cache.
	b.passes = 0
	p, err = b.pass(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.ops.failures) != len(b.cfgs) {
		t.Fatalf("pass against a warm cache: %d failures, want %d (one per cold job): %v", len(p.ops.failures), len(b.cfgs), p.ops.failures)
	}
	for _, f := range p.ops.failures {
		if !strings.Contains(f, "cached true") {
			t.Errorf("failure %q is not the hit-count check", f)
		}
	}
}

func TestTracedRunReportsEveryPerLayerMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole ledger")
	}
	c := readContract(t)
	work := t.TempDir()
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{"-workload", "serve", "-trace", "1", "-work", work, "-vmserved", vmservedBin}, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || code != 0 || !res.Correct {
		t.Fatalf("exit %d, err %v, result %+v\nstderr:\n%s", code, err, res, stderr.String())
	}
	checkMetrics(t, res.Metrics, c.PerLayer, unmeasured)

	// The span file: every span closed, self time within its duration.
	f, err := os.Open(filepath.Join(work, "spans-seed42.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	names := map[string]int{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		if s.End < s.Start || s.Self < 0 || s.Self > s.End-s.Start {
			t.Fatalf("bad span %+v", s)
		}
		names[s.Name]++
	}
	for _, want := range []string{"sweep.point", "client.upload", "client.point.cold", "client.point.hit", "client.stream", "ledger.mmu.walk"} {
		if names[want] == 0 {
			t.Errorf("no %s spans (have %v)", want, names)
		}
	}
}

func TestCoveredMergesOverlappingChildren(t *testing.T) {
	parent := span{Start: 0, End: 100}
	kids := []span{{Start: 20, End: 50}, {Start: 10, End: 30}, {Start: 80, End: 120}, {Start: 200, End: 300}}
	if got := covered(parent, kids); got != 60 {
		t.Fatalf("covered = %d, want 60", got)
	}
}

func TestRefusesMoreWorkersThanCPUs(t *testing.T) {
	var out bytes.Buffer
	args := []string{"-workload", "paper", "-workers", strconv.Itoa(runtime.NumCPU() + 1)}
	if code := run(context.Background(), args, &out, &out); code != 2 || strings.Contains(out.String(), `"correct"`) {
		t.Fatalf("exit %d, output %q", code, out.String())
	}
}

// TestPaperCanaryIsFig6And7 re-derives the recorded paper canaries from
// RunExperiment, proving the paper workload sweeps the figures' points.
func TestPaperCanaryIsFig6And7(t *testing.T) {
	for id, bench := range map[string]string{"fig6": "gcc", "fig7": "vortex"} {
		rep, err := experiments.Run(id, experiments.Options{Instructions: paperInstrs, Seed: defaultSeed, Workers: runtime.NumCPU()})
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		rows := strings.Split(strings.TrimSpace(rep.CSV), "\n")
		if rows[0] != "benchmark,vm,l1_bytes,l2_bytes,l1_line,l2_line,vmcpi,mcpi,interrupts" {
			t.Fatalf("%s CSV header %q", id, rows[0])
		}
		for _, row := range rows[1:] {
			f := strings.Split(row, ",")
			fmt.Fprintf(h, "%s,%s,%s\n", f[6], f[7], f[8])
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != paperCanary[bench] {
			t.Errorf("%s (%s): RunExperiment digest %s, recorded %s", id, bench, got, paperCanary[bench])
		}
		if n := len(rows) - 1; n != len(paperConfigs(defaultSeed)) {
			t.Errorf("%s has %d points, the paper workload %d", id, n, len(paperConfigs(defaultSeed)))
		}
	}
}

// TestMulticoreCanaryTable checks one pass against the recorded table
// and, on a mismatch, prints the table as measured for re-recording.
func TestMulticoreCanaryTable(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a multicore pass")
	}
	o := &options{seed: defaultSeed, workers: runtime.NumCPU(), clients: 1, work: t.TempDir(), seconds: time.Millisecond}
	ctx := context.Background()
	b, err := setupMulticore(ctx, o, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	if _, err := b.pass(ctx, nil); err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for i, pts := range b.first {
		for j, p := range pts {
			got[b.names[i][j]] = mcCanaryValue(p.Result)
		}
	}
	mismatch := len(got) != len(multicoreCanary)
	for k, v := range got {
		mismatch = mismatch || multicoreCanary[k] != v
	}
	if mismatch {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var sb strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&sb, "\t%q: %q,\n", k, got[k])
		}
		t.Fatalf("multicore canaries differ from the recorded table; measured:\n%s", sb.String())
	}
}
