// Command hostbench is mmusim's host-performance benchmark. It times how
// fast this machine runs the simulator, not what the simulator predicts:
// the simulated MCPI/VMCPI numbers serve only as canaries that must never
// move.
//
// Usage, from the repository root (run.sh builds this command and
// vmserved from source first):
//
//	bash hostbench/run.sh --workload paper|multicore|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 a run sets its workload up, runs the workload's fixed
// operation script in back-to-back passes for --seconds with eight more
// set-ups timed between them (setup_s sums each set-up step's median),
// checks every output, and prints the end-to-end metrics. With --trace 1
// it runs every workload with and without span recording, replays each
// simulator layer alone over the workloads' inputs, and prints the
// per-layer ledger; the spans go to a JSON-lines file. The last line of standard output is always the result object.
// README.md in this directory maps every metric to its layer and
// workload.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/version"
)

// defaultSeed is the seed the recorded canaries were taken at. It is the
// experiments package's default, so the paper workload's canary can be
// re-derived from RunExperiment("fig6"/"fig7") at the same seed.
const defaultSeed = 42

// setupReps is how many times a --trace 0 run sets its workload up: once
// for the passes, the rest spread over the timed window. setup_s sums
// each set-up step's median, so one slow start does not move it.
const setupReps = 9

// minPasses is the fewest timed passes a run makes, so wall_s is always a
// median of at least three.
const minPasses = 3

// options are one run's settings.
type options struct {
	seed     uint64
	seconds  time.Duration
	workers  int    // sweep workers and vmserved workers
	clients  int    // closed-loop serve clients
	vmserved string // vmserved binary built from this checkout
	work     string // scratch directory for inputs and span files
	log      io.Writer
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts operations (points, requests, streams, output checks) and
// describes every failed one.
type tally struct {
	attempted int
	failures  []string
}

func (t *tally) ok(cond bool, format string, args ...any) {
	t.attempted++
	if !cond {
		t.failures = append(t.failures, fmt.Sprintf(format, args...))
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failures = append(t.failures, o.failures...)
}

func main() {
	// SIGINT or SIGTERM cancels the run, which then stops vmserved on its
	// way out.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run parses args, runs the benchmark and returns the exit code: 0 for a
// run whose outputs all checked out, 1 for a run with failed operations
// (its result is still printed), 2 for a run that could not measure.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	nproc := runtime.NumCPU()
	fs := flag.NewFlagSet("hostbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: paper, multicore or serve")
	seed := fs.Uint64("seed", defaultSeed, "input seed; canaries are recorded for the default")
	seconds := fs.Float64("seconds", 20, "length of the timed window in seconds")
	traced := fs.Int("trace", 0, "1 = traced run: print the per-layer ledger instead of the end-to-end metrics")
	workers := fs.Int("workers", nproc, "sweep and vmserved workers (at most nproc)")
	clients := fs.Int("clients", nproc, "closed-loop serve clients (at most nproc)")
	vmserved := fs.String("vmserved", "", "vmserved binary built from this checkout (serve workload and traced runs)")
	work := fs.String("work", filepath.Join(".bench_build", "hostbench", "run"), "scratch directory for inputs and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "hostbench:", err)
		return 2
	}
	switch {
	case setups[*name] == nil:
		return fail(fmt.Errorf("-workload must be paper, multicore or serve, got %q", *name))
	case *traced != 0 && *traced != 1:
		return fail(fmt.Errorf("-trace must be 0 or 1, got %d", *traced))
	case *seconds <= 0:
		return fail(fmt.Errorf("-seconds must be positive"))
	case *workers < 1 || *workers > nproc:
		return fail(fmt.Errorf("-workers %d outside 1..nproc (%d): more workers than CPUs measures the scheduler", *workers, nproc))
	case *clients < 1 || *clients > nproc:
		return fail(fmt.Errorf("-clients %d outside 1..nproc (%d)", *clients, nproc))
	case (*name == "serve" || *traced == 1) && *vmserved == "":
		return fail(errors.New("-vmserved is required for the serve workload and traced runs"))
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		return fail(err)
	}
	o := &options{
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		workers:  *workers,
		clients:  *clients,
		vmserved: *vmserved,
		work:     *work,
		log:      stderr,
	}

	meta := map[string]any{
		"workload": *name, "trace": *traced, "seed": o.seed, "seconds": *seconds,
		"nproc": nproc, "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"engine": version.Engine(), "workers": o.workers, "clients": o.clients,
	}
	metaLine, _ := json.Marshal(map[string]any{"meta": meta}) // a map of plain values always encodes
	fmt.Fprintln(stdout, string(metaLine))

	var (
		metrics map[string]metric
		t       tally
		err     error
	)
	if *traced == 1 {
		var spanFile string
		metrics, t, spanFile, err = runLedger(ctx, o)
		if err == nil {
			fmt.Fprintln(stderr, "hostbench: spans written to", spanFile)
		}
	} else {
		metrics, t, err = measure(ctx, o, *name)
	}
	if err != nil {
		return fail(err)
	}
	for _, f := range t.failures {
		fmt.Fprintln(stderr, "hostbench: FAILED:", f)
	}
	printTable(stderr, metrics)
	res := result{Correct: len(t.failures) == 0, Attempted: t.attempted, Failed: len(t.failures), Metrics: metrics}
	line, err := json.Marshal(res)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// printTable writes the metrics by name, with units, for a human reader.
func printTable(w io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-44s %16.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}
