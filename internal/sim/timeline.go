package sim

import (
	"fmt"
	"io"

	"repro/internal/stats"
)

// TimelineSample is one interval of a sampled run (Config.SampleEvery):
// where the trace stood when the interval ended and what the machine
// charged during it. A run's samples together form the MCPI/VMCPI-vs-
// trace-position time series that the paper's aggregate tables flatten
// away.
type TimelineSample struct {
	// Instr is the trace position at the end of the interval: the count
	// of references replayed from the start of the trace, warmup
	// included (so the first sample of a warmed-up run sits at
	// WarmupInstrs + SampleEvery).
	Instr uint64
	// Delta holds the counters accumulated during this interval alone;
	// Delta.UserInstrs is the interval's reference count (the final
	// interval may be shorter than SampleEvery).
	Delta stats.Counters
	// Total holds the counters accumulated over the measured window up
	// to and including this interval. The last sample's Total equals
	// the finished Result's counters.
	Total stats.Counters
}

// timelineHeader is the first line of the timeline CSV.
const timelineHeader = "instr,refs,mcpi,vmcpi,interrupts,itlb_missrate,dtlb_missrate,mcpi_cum,vmcpi_cum"

// WriteTimelineCSV renders samples as CSV: one row per interval with
// the interval's own MCPI/VMCPI (computed over the interval's
// references — where the cycles actually went) alongside the running
// cumulative figures. The output is deterministic: same samples, same
// bytes.
func WriteTimelineCSV(w io.Writer, samples []TimelineSample) error {
	if _, err := fmt.Fprintln(w, timelineHeader); err != nil {
		return err
	}
	for i := range samples {
		s := &samples[i]
		if _, err := fmt.Fprintf(w, "%d,%d,%.6f,%.6f,%d,%.6f,%.6f,%.6f,%.6f\n",
			s.Instr, s.Delta.UserInstrs,
			s.Delta.MCPI(), s.Delta.VMCPI(), s.Delta.Interrupts,
			s.Delta.ITLBMissRate(), s.Delta.DTLBMissRate(),
			s.Total.MCPI(), s.Total.VMCPI()); err != nil {
			return err
		}
	}
	return nil
}
