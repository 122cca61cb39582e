// End-to-end smoke tests: build the four command binaries and run them
// the way a user would — tiny traces, real flags — asserting exit
// status and that the output parses.
package cmd_test

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// binDir holds the binaries built once in TestMain.
var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "vmtools")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer os.RemoveAll(dir)
	binDir = dir
	for _, tool := range []string{"vmsim", "vmtrace", "vmsweep", "vmexperiment", "vmserved"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(dir, tool), "./"+tool)
		cmd.Dir = "." // the cmd/ directory
		if out, err := cmd.CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "building %s: %v\n%s", tool, err, out)
			os.Exit(1)
		}
	}
	os.Exit(m.Run())
}

// run executes a built tool and returns stdout, stderr, and exit code.
func run(t *testing.T, tool string, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, tool), args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	code := 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("%s %v: %v", tool, args, err)
		}
		code = ee.ExitCode()
	}
	return stdout.String(), stderr.String(), code
}

func TestVMSimText(t *testing.T) {
	out, errOut, code := run(t, "vmsim", "-vm", "ultrix", "-bench", "gcc", "-n", "4000", "-warmup", "0")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	for _, want := range []string{"MCPI", "VMCPI", "total CPI"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestVMSimJSON(t *testing.T) {
	out, errOut, code := run(t, "vmsim", "-vm", "mach", "-bench", "ijpeg", "-n", "4000", "-json")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	var res struct {
		VM         string  `json:"vm"`
		UserInstrs uint64  `json:"user_instructions"`
		MCPI       float64 `json:"mcpi"`
	}
	if err := json.Unmarshal([]byte(out), &res); err != nil {
		t.Fatalf("-json output does not parse: %v\n%s", err, out)
	}
	if res.VM != "mach" || res.UserInstrs == 0 || res.MCPI <= 0 {
		t.Fatalf("-json output has implausible fields: %+v\n%s", res, out)
	}
}

func TestVMSimCheckAndInvariants(t *testing.T) {
	out, errOut, code := run(t, "vmsim",
		"-vm", "intel", "-bench", "gcc", "-n", "4000", "-check", "-invariants")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "reference models agree") {
		t.Errorf("-check did not report agreement:\n%s", out)
	}
}

func TestVMSimRejectsUnknownVM(t *testing.T) {
	_, errOut, code := run(t, "vmsim", "-vm", "vax")
	if code == 0 {
		t.Fatal("unknown -vm accepted")
	}
	if !strings.Contains(errOut, "vax") {
		t.Errorf("stderr does not name the bad organization: %s", errOut)
	}
}

func TestVMSimListVMs(t *testing.T) {
	out, errOut, code := run(t, "vmsim", "-list-vms")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	for _, vm := range []string{"ultrix", "mach", "intel", "pa-risc", "l2tlb", "pfsm-hier"} {
		if !strings.Contains(out, vm) {
			t.Errorf("-list-vms missing %q:\n%s", vm, out)
		}
	}
}

// TestVMSimMachineFileMatchesVMName: running from a bundled spec file
// must be indistinguishable from naming the same machine with -vm.
func TestVMSimMachineFileMatchesVMName(t *testing.T) {
	args := []string{"-bench", "gcc", "-n", "4000", "-json"}
	byName, errOut, code := run(t, "vmsim", append([]string{"-vm", "ultrix"}, args...)...)
	if code != 0 {
		t.Fatalf("-vm run: exit %d, stderr: %s", code, errOut)
	}
	byFile, errOut, code := run(t, "vmsim",
		append([]string{"-machine", "../machines/ultrix.json"}, args...)...)
	if code != 0 {
		t.Fatalf("-machine run: exit %d, stderr: %s", code, errOut)
	}
	if byFile != byName {
		t.Fatalf("-machine output differs from -vm:\n--- -vm ---\n%s--- -machine ---\n%s", byName, byFile)
	}
}

func TestVMSimMachineAndVMMutuallyExclusive(t *testing.T) {
	_, errOut, code := run(t, "vmsim",
		"-machine", "../machines/ultrix.json", "-vm", "mach", "-n", "2000")
	if code != 1 {
		t.Fatalf("exit %d, want 1, stderr: %s", code, errOut)
	}
	if !strings.Contains(errOut, "mutually exclusive") {
		t.Errorf("stderr does not explain the conflict: %s", errOut)
	}
}

// TestVMSimL2TLB: the bundled two-level-TLB machine runs end to end,
// with -check exercising its naive reference model.
func TestVMSimL2TLB(t *testing.T) {
	out, errOut, code := run(t, "vmsim",
		"-vm", "l2tlb", "-bench", "gcc", "-n", "4000", "-check")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "reference models agree") {
		t.Errorf("-check did not report agreement:\n%s", out)
	}
}

func TestVMSweepMachineFile(t *testing.T) {
	out, errOut, code := run(t, "vmsweep",
		"-machine", "../machines/l2tlb.json",
		"-bench", "gcc", "-n", "4000", "-tlb2", "256,512")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	rows, err := csv.NewReader(strings.NewReader(out)).ReadAll()
	if err != nil {
		t.Fatalf("output is not CSV: %v\n%s", err, out)
	}
	if len(rows) != 3 { // header + one row per L2 TLB size
		t.Fatalf("got %d CSV rows, want 3:\n%s", len(rows), out)
	}
	for _, row := range rows[1:] {
		if row[1] != "l2tlb" {
			t.Errorf("vm column = %q, want l2tlb", row[1])
		}
	}
}

func TestVMTraceGenerateInspectRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.trc")
	out, errOut, code := run(t, "vmtrace", "-bench", "vortex", "-n", "4000", "-o", path)
	if code != 0 {
		t.Fatalf("generate: exit %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "instrs=4000") {
		t.Errorf("summary missing instruction count:\n%s", out)
	}
	out2, errOut, code := run(t, "vmtrace", "-i", path)
	if code != 0 {
		t.Fatalf("inspect: exit %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(out2, "instrs=4000") {
		t.Errorf("inspection of the written trace disagrees:\n%s", out2)
	}
}

func TestVMTraceList(t *testing.T) {
	out, errOut, code := run(t, "vmtrace", "-list")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	for _, bench := range []string{"gcc", "vortex", "ijpeg"} {
		if !strings.Contains(out, bench) {
			t.Errorf("-list missing %q:\n%s", bench, out)
		}
	}
}

func TestVMSweepCSV(t *testing.T) {
	out, errOut, code := run(t, "vmsweep",
		"-bench", "gcc", "-n", "4000", "-vms", "ultrix,intel",
		"-l1", "32768", "-l2", "2097152", "-l1lines", "64", "-l2lines", "128")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	rows, err := csv.NewReader(strings.NewReader(out)).ReadAll()
	if err != nil {
		t.Fatalf("output is not CSV: %v\n%s", err, out)
	}
	if len(rows) != 3 { // header + one row per organization
		t.Fatalf("got %d CSV rows, want 3:\n%s", len(rows), out)
	}
	mcpiCol := -1
	for i, name := range rows[0] {
		if name == "mcpi" {
			mcpiCol = i
		}
	}
	if mcpiCol < 0 {
		t.Fatalf("no mcpi column in header %v", rows[0])
	}
	for _, row := range rows[1:] {
		if v, err := strconv.ParseFloat(row[mcpiCol], 64); err != nil || v <= 0 {
			t.Errorf("bad mcpi cell %q in row %v (err=%v)", row[mcpiCol], row, err)
		}
	}
}

func TestVMSweepJournalResumeByteIdentical(t *testing.T) {
	jdir := filepath.Join(t.TempDir(), "journal")
	args := []string{"-bench", "gcc", "-n", "4000", "-vms", "ultrix,intel,mach", "-l1", "16384,65536"}
	clean, errOut, code := run(t, "vmsweep", args...)
	if code != 0 {
		t.Fatalf("clean run: exit %d, stderr: %s", code, errOut)
	}
	journalled, errOut, code := run(t, "vmsweep", append(args, "-journal", jdir)...)
	if code != 0 {
		t.Fatalf("journalled run: exit %d, stderr: %s", code, errOut)
	}
	if journalled != clean {
		t.Fatalf("journalling changed the CSV output:\n%s\nvs\n%s", journalled, clean)
	}
	resumed, errOut, code := run(t, "vmsweep", append(args, "-journal", jdir, "-resume")...)
	if code != 0 {
		t.Fatalf("resumed run: exit %d, stderr: %s", code, errOut)
	}
	if resumed != clean {
		t.Fatalf("resumed CSV is not byte-identical to the uninterrupted run:\n%s\nvs\n%s", resumed, clean)
	}
	if !strings.Contains(errOut, "replayed from journal") {
		t.Errorf("resume did not report journal replays: %s", errOut)
	}
}

// TestVMSweepMachineFileJournalResume: a sweep over a -machine spec
// resumes from its journal, although each run parses the spec afresh.
func TestVMSweepMachineFileJournalResume(t *testing.T) {
	jdir := filepath.Join(t.TempDir(), "journal")
	args := []string{"-machine", "../machines/ultrix.json", "-bench", "gcc", "-n", "5000", "-l1", "paper", "-journal", jdir}
	first, errOut, code := run(t, "vmsweep", args...)
	if code != 0 {
		t.Fatalf("journalled run: exit %d, stderr: %s", code, errOut)
	}
	resumed, errOut, code := run(t, "vmsweep", append(args, "-resume")...)
	if code != 0 {
		t.Fatalf("resumed run: exit %d, stderr: %s", code, errOut)
	}
	if resumed != first {
		t.Fatalf("resumed CSV is not byte-identical:\n%s\nvs\n%s", resumed, first)
	}
	if !strings.Contains(errOut, "8 of 8 points replayed from journal") {
		t.Errorf("resume re-simulated journalled points: %s", errOut)
	}
}

func TestVMSweepTimeoutFailuresExitThree(t *testing.T) {
	out, errOut, code := run(t, "vmsweep",
		"-bench", "gcc", "-n", "50000", "-vms", "ultrix", "-timeout", "1ns")
	if code != 3 {
		t.Fatalf("exit %d, want 3 (quarantined point failures), stderr: %s", code, errOut)
	}
	if !strings.Contains(errOut, "timeout=1") {
		t.Errorf("stderr missing per-category summary: %s", errOut)
	}
	// The CSV header (and nothing corrupt) is still emitted.
	if !strings.HasPrefix(out, "benchmark,vm,") {
		t.Errorf("stdout lost its CSV header:\n%s", out)
	}
}

func TestVMSweepResumeRequiresJournal(t *testing.T) {
	_, errOut, code := run(t, "vmsweep", "-resume")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errOut, "-journal") {
		t.Errorf("stderr does not explain the missing flag: %s", errOut)
	}
}

func TestVMSimTimelineDeterministic(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.csv"), filepath.Join(dir, "b.csv")
	args := []string{"-vm", "mach", "-bench", "gcc", "-n", "20000", "-warmup", "4000", "-sample", "3000"}
	for _, path := range []string{a, b} {
		_, errOut, code := run(t, "vmsim", append(args, "-timeline", path)...)
		if code != 0 {
			t.Fatalf("exit %d, stderr: %s", code, errOut)
		}
	}
	da, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	db, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(da, db) {
		t.Fatalf("same seed produced different timeline CSVs:\n%s\nvs\n%s", da, db)
	}
	lines := strings.Split(strings.TrimRight(string(da), "\n"), "\n")
	if !strings.HasPrefix(lines[0], "instr,") {
		t.Fatalf("timeline header = %q", lines[0])
	}
	// 16000 live references at 3000/sample = 5 full + 1 partial interval.
	if len(lines) != 1+6 {
		t.Fatalf("got %d timeline rows, want 6:\n%s", len(lines)-1, da)
	}
}

// assertNoStrayFiles fails if dir holds anything — the temp-file-leak
// regression tests point the tools' output files into an empty
// directory, force an error exit, and demand the directory stays empty
// (no committed file, no stranded *.tmp*).
func assertNoStrayFiles(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("stray file left behind: %s", e.Name())
	}
}

func TestVMSimFailureLeavesNoTempFiles(t *testing.T) {
	// -cpuprofile opens an atomic writer before the bad -vm is detected;
	// the error exit must abort it, not strand the pending temp file.
	dir := t.TempDir()
	_, errOut, code := run(t, "vmsim",
		"-cpuprofile", filepath.Join(dir, "cpu.out"), "-vm", "vax", "-n", "2000")
	if code != 1 {
		t.Fatalf("exit %d, want 1, stderr: %s", code, errOut)
	}
	assertNoStrayFiles(t, dir)
}

func TestVMSimTimelineCommitFailureLeavesNoTempFiles(t *testing.T) {
	// Committing onto an existing directory fails after the temp file
	// was written; the abort must remove it.
	dir := t.TempDir()
	blocked := filepath.Join(dir, "out.csv")
	if err := os.Mkdir(blocked, 0o755); err != nil {
		t.Fatal(err)
	}
	_, errOut, code := run(t, "vmsim",
		"-vm", "ultrix", "-bench", "gcc", "-n", "4000", "-timeline", blocked)
	if code != 1 {
		t.Fatalf("exit %d, want 1, stderr: %s", code, errOut)
	}
	if err := os.Remove(blocked); err != nil {
		t.Fatal(err)
	}
	assertNoStrayFiles(t, dir)
}

func TestVMSweepFailureLeavesNoTempFiles(t *testing.T) {
	// The bad -l1 list is rejected after the CPU profile's atomic
	// writer is open; the error exit must abort it.
	dir := t.TempDir()
	_, errOut, code := run(t, "vmsweep",
		"-cpuprofile", filepath.Join(dir, "cpu.out"), "-l1", "bogus")
	if code != 1 {
		t.Fatalf("exit %d, want 1, stderr: %s", code, errOut)
	}
	assertNoStrayFiles(t, dir)
}

func TestVMTraceWriteFailureLeavesNoTempFiles(t *testing.T) {
	dir := t.TempDir()
	blocked := filepath.Join(dir, "t.trc")
	if err := os.Mkdir(blocked, 0o755); err != nil {
		t.Fatal(err)
	}
	_, errOut, code := run(t, "vmtrace", "-bench", "gcc", "-n", "2000", "-o", blocked)
	if code != 1 {
		t.Fatalf("exit %d, want 1, stderr: %s", code, errOut)
	}
	if err := os.Remove(blocked); err != nil {
		t.Fatal(err)
	}
	assertNoStrayFiles(t, dir)
}

// manifest mirrors vmsweep's campaignManifest wire format.
type manifest struct {
	Schema      int            `json:"schema"`
	Benchmark   string         `json:"benchmark"`
	TraceSHA256 string         `json:"trace_sha256"`
	TraceRefs   int            `json:"trace_refs"`
	Configs     int            `json:"configs"`
	Workers     int            `json:"workers"`
	WallSeconds float64        `json:"wall_seconds"`
	SimSeconds  float64        `json:"sim_seconds"`
	Completed   int            `json:"completed"`
	Resumed     int            `json:"resumed"`
	Retried     int            `json:"retried"`
	Failed      int            `json:"failed"`
	Cancelled   int            `json:"cancelled"`
	Errors      map[string]int `json:"errors_by_category"`
	ExitStatus  int            `json:"exit_status"`
}

func readManifest(t *testing.T, path string) manifest {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("manifest not written: %v", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("manifest does not parse: %v\n%s", err, data)
	}
	return m
}

func TestVMSweepProgressAndManifest(t *testing.T) {
	mpath := filepath.Join(t.TempDir(), "m.json")
	// 2 VMs × 8 L1 sizes × 4 L1 linesizes × 2 L2 linesizes = 128 points.
	out, errOut, code := run(t, "vmsweep",
		"-bench", "gcc", "-n", "2000", "-vms", "ultrix,intel",
		"-l1", "paper", "-l1lines", "paper", "-l2lines", "64,128",
		"-progress", "-manifest", mpath)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	for _, want := range []string{"vmsweep: progress 0/128", "eta", "retried=", "resumed=", "failed=0", "(done in"} {
		if !strings.Contains(errOut, want) {
			t.Errorf("-progress stderr missing %q:\n%s", want, errOut)
		}
	}
	if rows, err := csv.NewReader(strings.NewReader(out)).ReadAll(); err != nil || len(rows) != 129 {
		t.Fatalf("expected 129 CSV rows (err=%v), got %d", err, len(rows))
	}
	m := readManifest(t, mpath)
	if m.Schema != 1 || m.Benchmark != "gcc" || m.Configs != 128 ||
		m.Completed != 128 || m.Failed != 0 || m.ExitStatus != 0 {
		t.Errorf("manifest fields implausible: %+v", m)
	}
	if len(m.TraceSHA256) != 64 {
		t.Errorf("trace_sha256 = %q, want 64 hex chars", m.TraceSHA256)
	}
	if m.TraceRefs != 2000 || m.Workers <= 0 || m.WallSeconds <= 0 || m.SimSeconds <= 0 {
		t.Errorf("manifest accounting implausible: %+v", m)
	}
}

func TestVMSweepManifestRecordsFailures(t *testing.T) {
	mpath := filepath.Join(t.TempDir(), "m.json")
	_, errOut, code := run(t, "vmsweep",
		"-bench", "gcc", "-n", "50000", "-vms", "ultrix", "-timeout", "1ns",
		"-manifest", mpath)
	if code != 3 {
		t.Fatalf("exit %d, want 3, stderr: %s", code, errOut)
	}
	m := readManifest(t, mpath)
	if m.ExitStatus != 3 || m.Failed != 1 || m.Errors["timeout"] != 1 {
		t.Errorf("failure manifest implausible: %+v", m)
	}
}

func TestVMExperimentQuick(t *testing.T) {
	dir := t.TempDir()
	out, errOut, code := run(t, "vmexperiment",
		"-quick", "-n", "20000", "-csv", dir, "tab1", "fig7")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	for _, want := range []string{"=== tab1", "=== fig7"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	for _, id := range []string{"tab1", "fig7"} {
		if _, err := os.Stat(filepath.Join(dir, id+".csv")); err != nil {
			t.Errorf("expected CSV for %s: %v", id, err)
		}
	}
}

func TestVMExperimentUsageOnNoArgs(t *testing.T) {
	_, _, code := run(t, "vmexperiment")
	if code != 2 {
		t.Fatalf("no-args exit = %d, want 2 (usage)", code)
	}
}

// TestVMTraceConvertRoundTrip: generate → convert to .vmtrc → convert
// back to binary. The stats report must be identical through every hop,
// and -format must override the extension heuristic.
func TestVMTraceConvertRoundTrip(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "gcc.trc")
	vmtrc := filepath.Join(dir, "gcc.vmtrc")
	back := filepath.Join(dir, "gcc-back.trc")

	if _, errOut, code := run(t, "vmtrace", "-bench", "gcc", "-n", "6000", "-o", bin); code != 0 {
		t.Fatalf("generate exit %d, stderr: %s", code, errOut)
	}
	out, errOut, code := run(t, "vmtrace", "-convert", "-i", bin, "-o", vmtrc)
	if code != 0 {
		t.Fatalf("convert to vmtrc exit %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "vmtrc format") {
		t.Fatalf("convert did not pick the vmtrc format from the extension:\n%s", out)
	}
	if _, errOut, code = run(t, "vmtrace", "-convert", "-i", vmtrc, "-o", back, "-format", "binary"); code != 0 {
		t.Fatalf("convert back exit %d, stderr: %s", code, errOut)
	}

	// The .vmtrc hop must not perturb a single reference: inspect all
	// three files and compare the full stats reports.
	var reports []string
	for _, f := range []string{bin, vmtrc, back} {
		out, errOut, code := run(t, "vmtrace", "-i", f)
		if code != 0 {
			t.Fatalf("inspect %s exit %d, stderr: %s", f, code, errOut)
		}
		reports = append(reports, out)
	}
	if reports[1] != reports[0] || reports[2] != reports[0] {
		t.Fatalf("stats diverge across formats:\n--- binary ---\n%s--- vmtrc ---\n%s--- back ---\n%s",
			reports[0], reports[1], reports[2])
	}

	// Delta-encoded SoA blocks should be materially smaller than the
	// packed 18-byte records for a real reference stream.
	bi, err := os.Stat(bin)
	if err != nil {
		t.Fatal(err)
	}
	vi, err := os.Stat(vmtrc)
	if err != nil {
		t.Fatal(err)
	}
	if vi.Size() >= bi.Size() {
		t.Errorf(".vmtrc (%d bytes) not smaller than binary (%d bytes)", vi.Size(), bi.Size())
	}

	if _, errOut, code := run(t, "vmtrace", "-convert", "-i", bin); code == 0 {
		t.Fatal("-convert without -o succeeded")
	} else if !strings.Contains(errOut, "-o") {
		t.Fatalf("unhelpful -convert error: %s", errOut)
	}
}

// TestVMSweepVMTRCInputMatchesBinary: a sweep replayed from a .vmtrc
// file must emit CSV byte-identical to the same sweep replayed from the
// classic binary file — format detection happens at the edge, the
// engine never knows.
func TestVMSweepVMTRCInputMatchesBinary(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "ijpeg.trc")
	vmtrc := filepath.Join(dir, "ijpeg.vmtrc")
	if _, errOut, code := run(t, "vmtrace", "-bench", "ijpeg", "-n", "6000", "-o", bin); code != 0 {
		t.Fatalf("generate exit %d, stderr: %s", code, errOut)
	}
	if _, errOut, code := run(t, "vmtrace", "-convert", "-i", bin, "-o", vmtrc); code != 0 {
		t.Fatalf("convert exit %d, stderr: %s", code, errOut)
	}
	args := []string{"-vms", "ultrix,intel", "-l1", "1024,4096"}
	fromBin, errOut, code := run(t, "vmsweep", append([]string{"-tracefile", bin}, args...)...)
	if code != 0 {
		t.Fatalf("binary-input sweep exit %d, stderr: %s", code, errOut)
	}
	fromVMTRC, errOut, code := run(t, "vmsweep", append([]string{"-tracefile", vmtrc}, args...)...)
	if code != 0 {
		t.Fatalf("vmtrc-input sweep exit %d, stderr: %s", code, errOut)
	}
	if fromVMTRC != fromBin {
		t.Fatalf("CSV diverges by input format:\n--- binary ---\n%s--- vmtrc ---\n%s", fromBin, fromVMTRC)
	}
}

// TestVMSweepWorkersByteIdentical: the end-to-end version of the
// parallel determinism oracle — -workers 1 and -workers 4 through the
// real binary, byte-identical stdout.
func TestVMSweepWorkersByteIdentical(t *testing.T) {
	args := []string{"-bench", "gcc", "-n", "6000", "-vms", "ultrix,intel", "-l1", "1024,4096,16384"}
	serial, errOut, code := run(t, "vmsweep", append([]string{"-workers", "1"}, args...)...)
	if code != 0 {
		t.Fatalf("serial exit %d, stderr: %s", code, errOut)
	}
	parallel, errOut, code := run(t, "vmsweep", append([]string{"-workers", "4"}, args...)...)
	if code != 0 {
		t.Fatalf("parallel exit %d, stderr: %s", code, errOut)
	}
	if parallel != serial {
		t.Fatalf("-workers 4 CSV differs from -workers 1:\n--- serial ---\n%s--- parallel ---\n%s", serial, parallel)
	}
}
