package golden

import (
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/experiments"
)

var update = flag.Bool("update", false, "regenerate the golden files from the current simulator")

// TestGoldenResults regenerates every paper artifact at the pinned
// reduced trace length and diffs it against the checked-in golden.
// Run with -update to accept intentional changes.
func TestGoldenResults(t *testing.T) {
	for _, id := range PaperIDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			got, err := Generate(id)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", id+".csv")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if err := Compare(got, string(want)); err != nil {
				t.Fatalf("%s drifted from its golden: %v\n(if intentional, regenerate with -update)", id, err)
			}
		})
	}
}

// TestCompare pins the comparator's behavior: exact strings, numbers
// within and beyond tolerance, and shape mismatches.
func TestCompare(t *testing.T) {
	cases := []struct {
		name      string
		got, want string
		ok        bool
	}{
		{"identical", "a,1.5\nb,2", "a,1.5\nb,2", true},
		{"crlf and trailing newline", "a,1\n", "a,1\r\n", true},
		{"within tolerance", "x,1.0000001", "x,1.0000002", true},
		{"beyond tolerance", "x,1.01", "x,1.02", false},
		{"string mismatch", "x,foo", "x,bar", false},
		{"row count", "a,1\nb,2", "a,1", false},
		{"column count", "a,1,2", "a,1", false},
		{"number vs string", "x,1.5", "x,n/a", false},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			err := Compare(tc.got, tc.want)
			if tc.ok && err != nil {
				t.Errorf("Compare: unexpected error: %v", err)
			}
			if !tc.ok && err == nil {
				t.Error("Compare: expected an error")
			}
		})
	}
}

// TestPaperIDsResolve keeps the golden list in sync with the registry.
func TestPaperIDsResolve(t *testing.T) {
	for _, id := range PaperIDs() {
		if _, err := experiments.ByID(id); err != nil {
			t.Errorf("PaperIDs lists %q but the registry rejects it: %v", id, err)
		}
	}
}

// TestResultsSchema pins the committed results/<id>.csv of every
// artifact with a golden to what the experiments print now: the same
// header, row count and non-numeric cells (benchmark, machine and size
// labels) as the artifact generated over its full, non-quick space. The
// trace is short, since only the numbers depend on its length. A schema
// change therefore cannot leave results/ stale; regenerate it with
// `vmexperiment -n 1000000 -csv results all > results/experiments_full.txt`.
func TestResultsSchema(t *testing.T) {
	for _, id := range PaperIDs() {
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			committed, err := os.ReadFile(filepath.Join("..", "..", "..", "results", id+".csv"))
			if err != nil {
				t.Fatal(err)
			}
			rep, err := experiments.Run(id, experiments.Options{Instructions: 4_000, Seed: Opts().Seed})
			if err != nil {
				t.Fatal(err)
			}
			got, want := shape(string(committed)), shape(rep.CSV)
			if len(got) != len(want) {
				t.Fatalf("results/%s.csv has %d rows, the experiment prints %d", id, len(got), len(want))
			}
			for r := range want {
				if got[r] != want[r] {
					t.Fatalf("results/%s.csv row %d (numbers as #):\n got: %s\nwant: %s", id, r+1, got[r], want[r])
				}
			}
		})
	}
}

// shape returns a CSV document's rows with every numeric cell replaced
// by "#".
func shape(csv string) []string {
	rows := splitLines(csv)
	for r, row := range rows {
		cells := strings.Split(row, ",")
		for c, cell := range cells {
			if _, err := strconv.ParseFloat(strings.TrimSpace(cell), 64); err == nil {
				cells[c] = "#"
			}
		}
		rows[r] = strings.Join(cells, ",")
	}
	return rows
}
