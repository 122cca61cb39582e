// Command vmbench is the reproducible benchmark harness: it measures the
// simulator's own performance — not the simulated machine's — and emits a
// machine-readable BENCH_sim.json.
//
// For every requested organization it replays the same generated trace
// several times and reports the median throughput (references/second and
// ns/reference) plus the allocation rate (allocs/reference, which should
// be ~0: the engine's steady state is allocation-free). It then times one
// paper-style cache-size sweep to capture parallel sweep wall-clock.
// Multicore cluster and OS-kernel costs are measured per policy by the
// hostbench ledger (sim.cluster_ns_per_ref, oskernel.touch_ns; see
// hostbench/README.md), not here.
//
// Usage:
//
//	vmbench                         # paper VMs, 200k-instruction gcc trace
//	vmbench -vms ultrix,intel -runs 5 -o BENCH_sim.json
//	vmbench -cpuprofile cpu.out     # profile the measured runs
//
// The defaults are sized so the whole harness finishes in well under a
// minute; see PERFORMANCE.md for how to read and compare the output.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	mmusim "repro"
	"repro/internal/atomicio"
	"repro/internal/trace"
	"repro/internal/version"
)

// engineBench is one organization's measured hot-path performance.
type engineBench struct {
	VM           string  `json:"vm"`
	Runs         int     `json:"runs"`
	References   int     `json:"references"`
	NsPerRef     float64 `json:"ns_per_ref"`
	RefsPerSec   float64 `json:"refs_per_sec"`
	AllocsPerOp  uint64  `json:"allocs_per_op"`
	AllocsPerRef float64 `json:"allocs_per_ref"`
	MCPI         float64 `json:"mcpi"`
	VMCPI        float64 `json:"vmcpi"`
}

// sweepBench is one timed sweep at a fixed worker count; the scaling
// series runs the identical campaign at 1/2/4/GOMAXPROCS workers.
type sweepBench struct {
	Configs      int     `json:"configs"`
	Workers      int     `json:"workers"`
	WallSeconds  float64 `json:"wall_seconds"`
	PointsPerSec float64 `json:"points_per_sec"`
	Speedup      float64 `json:"speedup_vs_serial"`
}

// traceLoadBench times loading the same reference stream from one
// on-disk format through the auto-detecting OpenTraceFile path.
type traceLoadBench struct {
	Format      string  `json:"format"`
	Bytes       int64   `json:"bytes"`
	LoadSeconds float64 `json:"load_seconds"`
	NsPerRef    float64 `json:"ns_per_ref"`
}

// report is the BENCH_sim.json schema.
type report struct {
	Schema    string           `json:"schema"`
	Generated string           `json:"generated"`
	GoVersion string           `json:"go_version"`
	GOOS      string           `json:"goos"`
	GOARCH    string           `json:"goarch"`
	CPUs      int              `json:"cpus"`
	Bench     string           `json:"bench"`
	Instrs    int              `json:"instructions"`
	Seed      uint64           `json:"seed"`
	Engines   []engineBench    `json:"engines"`
	Sweep     []sweepBench     `json:"sweep,omitempty"`
	TraceLoad []traceLoadBench `json:"trace_load,omitempty"`
}

func main() {
	var (
		vms       = flag.String("vms", "ultrix,mach,intel,pa-risc,notlb,base", "comma list of organizations, or 'all'")
		machineIn = flag.String("machine", "", "benchmark the machine from this spec file (JSON, see MACHINES.md) instead of -vms")
		listVMs   = flag.Bool("list-vms", false, "list every registered machine with its description and exit")
		bench     = flag.String("bench", "gcc", "benchmark trace to replay")
		n         = flag.Int("n", 200_000, "trace length in instructions")
		seed      = flag.Uint64("seed", 42, "deterministic seed")
		runs      = flag.Int("runs", 3, "timed runs per organization (median reported)")
		out       = flag.String("o", "BENCH_sim.json", "output path ('-' = stdout only)")
		doSweep   = flag.Bool("sweep", true, "also time one paper-style L1-size sweep")
		workers   = flag.Int("workers", 0, "sweep workers (0 = GOMAXPROCS)")
		cpuProf   = flag.String("cpuprofile", "", "write a pprof CPU profile of the measured runs to this file")
		ver       = flag.Bool("version", false, "print the engine version and exit")
	)
	flag.Parse()
	if *ver {
		fmt.Println(version.String())
		return
	}
	if *listVMs {
		for _, s := range mmusim.BundledMachines() {
			fmt.Printf("%-12s %s\n", s.Name, s.Description)
		}
		return
	}

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "vmbench:", err)
		os.Exit(1)
	}

	// configFor builds the measured configuration for a name — through
	// the -machine spec when given, the registry otherwise.
	var machineSpec *mmusim.MachineSpec
	vmList := strings.Split(*vms, ",")
	if *machineIn != "" {
		spec, err := mmusim.LoadMachineSpec(*machineIn)
		if err != nil {
			fail(err)
		}
		machineSpec = spec
		vmList = []string{spec.Name}
	} else if *vms == "all" {
		vmList = mmusim.VMs()
	}
	configFor := func(vm string) mmusim.Config {
		if machineSpec != nil {
			return mmusim.ConfigForMachine(machineSpec)
		}
		return mmusim.DefaultConfig(vm)
	}
	tr, err := mmusim.GenerateTrace(*bench, *seed, *n)
	if err != nil {
		fail(err)
	}
	refs := tr.Len()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	rep := report{
		Schema:    "mmusim-bench/v4",
		Generated: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
		Bench:     *bench,
		Instrs:    *n,
		Seed:      *seed,
	}

	for _, vm := range vmList {
		cfg := configFor(strings.TrimSpace(vm))
		cfg.Seed = *seed
		// Warm run: faults in the trace pages and verifies the config
		// before anything is timed.
		res, err := mmusim.Simulate(cfg, tr)
		if err != nil {
			fail(err)
		}
		times := make([]float64, *runs)
		var allocs uint64
		var ms runtime.MemStats
		for i := range times {
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			start := time.Now()
			if _, err := mmusim.Simulate(cfg, tr); err != nil {
				fail(err)
			}
			times[i] = time.Since(start).Seconds()
			runtime.ReadMemStats(&ms)
			allocs = ms.Mallocs - before
		}
		sort.Float64s(times)
		median := times[len(times)/2]
		eb := engineBench{
			VM:           cfg.VM,
			Runs:         *runs,
			References:   refs,
			NsPerRef:     median * 1e9 / float64(refs),
			RefsPerSec:   float64(refs) / median,
			AllocsPerOp:  allocs,
			AllocsPerRef: float64(allocs) / float64(refs),
			MCPI:         res.MCPI(),
			VMCPI:        res.VMCPI(),
		}
		rep.Engines = append(rep.Engines, eb)
		fmt.Fprintf(os.Stderr, "vmbench: %-12s %7.2f ns/ref  %6.1f Mref/s  %d allocs/op\n",
			eb.VM, eb.NsPerRef, eb.RefsPerSec/1e6, eb.AllocsPerOp)
	}

	if *doSweep {
		// The scaling campaign replays a .vmtrc round trip of the
		// generated trace — written to disk and memory-map-loaded back —
		// so the timed path is exactly what a file-driven sweep sees.
		tmp, err := os.MkdirTemp("", "vmbench")
		if err != nil {
			fail(err)
		}
		defer os.RemoveAll(tmp)
		vmtrcPath := filepath.Join(tmp, *bench+".vmtrc")
		if err := writeFile(vmtrcPath, func(f *os.File) error {
			return mmusim.WriteVMTRCTrace(f, tr)
		}); err != nil {
			fail(err)
		}
		sweepTr, err := mmusim.OpenTraceFile(vmtrcPath)
		if err != nil {
			fail(err)
		}

		space := mmusim.SweepSpace{Base: configFor(vmList[0])}
		space.Base.Seed = *seed
		space.L1Sizes = []int{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10}
		cfgs := space.Configs()

		series := []int{1, 2, 4, runtime.GOMAXPROCS(0)}
		if *workers > 0 {
			series = append(series, *workers)
		}
		series = dedupSorted(series)

		var serialWall float64
		for _, w := range series {
			start := time.Now()
			for _, p := range mmusim.Sweep(sweepTr, cfgs, w) {
				if p.Err != nil {
					fail(p.Err)
				}
			}
			wall := time.Since(start).Seconds()
			if w == 1 {
				serialWall = wall
			}
			sb := sweepBench{
				Configs:      len(cfgs),
				Workers:      w,
				WallSeconds:  wall,
				PointsPerSec: float64(len(cfgs)) / wall,
			}
			if serialWall > 0 {
				sb.Speedup = serialWall / wall
			}
			rep.Sweep = append(rep.Sweep, sb)
			fmt.Fprintf(os.Stderr, "vmbench: sweep %d points × %d workers in %.2fs (%.1f points/s, %.2fx)\n",
				len(cfgs), w, wall, sb.PointsPerSec, sb.Speedup)
		}

		rep.TraceLoad = timeTraceLoads(tmp, *bench, tr, fail)
	}

	enc, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fail(err)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
		return
	}
	if err := atomicio.WriteFile(*out, enc, 0o644); err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "vmbench: wrote %s\n", *out)
}

// writeFile creates path and streams through fn, closing on the way out.
func writeFile(path string, fn func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// dedupSorted sorts and uniques a small worker-count series.
func dedupSorted(xs []int) []int {
	sort.Ints(xs)
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

// writeDin emits tr as Dinero text: an instruction-fetch line per
// record, followed by a data line when the instruction touches memory.
func writeDin(w *os.File, tr *mmusim.Trace) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	for _, r := range tr.Refs {
		fmt.Fprintf(bw, "2 %x\n", r.PC)
		switch r.Kind {
		case trace.Load:
			fmt.Fprintf(bw, "0 %x\n", r.Data)
		case trace.Store:
			fmt.Fprintf(bw, "1 %x\n", r.Data)
		}
	}
	return bw.Flush()
}

// timeTraceLoads writes the same stream in every supported on-disk
// format and times the auto-detecting load path on each (median of 3).
func timeTraceLoads(tmp, bench string, tr *mmusim.Trace, fail func(error)) []traceLoadBench {
	type format struct {
		name  string
		path  string
		write func(*os.File) error
	}
	formats := []format{
		{"dinero", filepath.Join(tmp, bench+".din"), func(f *os.File) error { return writeDin(f, tr) }},
		{"binary", filepath.Join(tmp, bench+".trc"), func(f *os.File) error { return mmusim.WriteTrace(f, tr) }},
		{"vmtrc", filepath.Join(tmp, bench+".load.vmtrc"), func(f *os.File) error { return mmusim.WriteVMTRCTrace(f, tr) }},
	}
	var out []traceLoadBench
	for _, ft := range formats {
		if err := writeFile(ft.path, ft.write); err != nil {
			fail(err)
		}
		fi, err := os.Stat(ft.path)
		if err != nil {
			fail(err)
		}
		times := make([]float64, 3)
		var loaded *mmusim.Trace
		for i := range times {
			start := time.Now()
			if loaded, err = mmusim.OpenTraceFile(ft.path); err != nil {
				fail(err)
			}
			times[i] = time.Since(start).Seconds()
		}
		sort.Float64s(times)
		median := times[len(times)/2]
		lb := traceLoadBench{
			Format:      ft.name,
			Bytes:       fi.Size(),
			LoadSeconds: median,
			NsPerRef:    median * 1e9 / float64(loaded.Len()),
		}
		out = append(out, lb)
		fmt.Fprintf(os.Stderr, "vmbench: load %-7s %9d bytes  %7.2f ns/ref\n", lb.Format, lb.Bytes, lb.NsPerRef)
	}
	return out
}
