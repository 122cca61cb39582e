package sim

import (
	"testing"

	"repro/internal/trace"
)

// TestTimelineTailBoundaries pins the off-by-one candidates at the
// edges of the sampled window: the warmup boundary (the first interval
// starts exactly at warm, never one reference early or late), the
// trailing partial interval (exactly one extra sample, ending exactly
// at the trace's end), and the degenerate windows where SampleEvery
// meets or exceeds the whole measured window. Each case derives the
// expected sample positions and interval widths from first principles
// so a regression in the boundary arithmetic cannot hide behind a
// matching count.
func TestTimelineTailBoundaries(t *testing.T) {
	cases := []struct {
		name  string
		n     int // trace length
		warm  int // Config.WarmupInstrs (pre-cap)
		every int
	}{
		// The measured window is exactly as long as the warmup prefix
		// (n = 2*warm, so the len/2 cap sits right at the boundary too).
		{"window_equals_warmup", 8_000, 4_000, 1_500},
		// One reference longer: the final interval shrinks to one record.
		{"window_equals_warmup_plus_one", 8_001, 4_000, 1_500},
		// every exceeds the window: exactly one (partial) sample at the end.
		{"every_exceeds_window", 6_000, 4_000, 5_000},
		// every equals the window: exactly one full sample, no trailing one.
		{"every_equals_window", 6_000, 4_000, 2_000},
		// every divides the window: no trailing partial interval.
		{"window_divisible", 10_000, 4_000, 1_500},
		// every = 1 degenerate: one sample per measured reference.
		{"every_one", 600, 500, 1},
		// No warmup: the first interval starts at reference zero.
		{"no_warmup", 5_000, 0, 1_300},
		// WarmupInstrs beyond len/2: the cap moves the boundary to n/2.
		{"warmup_capped", 6_000, 10_000, 900},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Default(VMUltrix)
			cfg.WarmupInstrs = tc.warm
			cfg.SampleEvery = tc.every
			res := runSampled(t, cfg, tc.n)

			warm := tc.warm
			if warm > tc.n/2 {
				warm = tc.n / 2
			}
			window := tc.n - warm
			wantSamples := (window + tc.every - 1) / tc.every
			if len(res.Timeline) != wantSamples {
				t.Fatalf("got %d samples, want %d (window %d, every %d)",
					len(res.Timeline), wantSamples, window, tc.every)
			}

			var sumRefs uint64
			for i, s := range res.Timeline {
				wantPos := uint64(warm + (i+1)*tc.every)
				wantRefs := uint64(tc.every)
				if i == len(res.Timeline)-1 {
					wantPos = uint64(tc.n)
					if rem := window % tc.every; rem != 0 {
						wantRefs = uint64(rem)
					}
				}
				if s.Instr != wantPos {
					t.Errorf("sample %d at instr %d, want %d", i, s.Instr, wantPos)
				}
				if s.Delta.UserInstrs != wantRefs {
					t.Errorf("sample %d charges %d references, want %d",
						i, s.Delta.UserInstrs, wantRefs)
				}
				sumRefs += s.Delta.UserInstrs
			}
			if sumRefs != uint64(window) {
				t.Errorf("interval widths sum to %d, want the %d-reference window",
					sumRefs, window)
			}
			last := res.Timeline[len(res.Timeline)-1]
			if last.Total != res.Counters {
				t.Errorf("final sample Total %+v != result counters %+v",
					last.Total, res.Counters)
			}
		})
	}
}

// TestTimelineTailStepAndStreamAgree holds the same boundary cases
// through the other two replay paths — the Step-per-reference loop and
// the streaming feed — so a tail fix in one path cannot silently skew
// another.
func TestTimelineTailStepAndStreamAgree(t *testing.T) {
	cases := []struct{ n, warm, every int }{
		{8_000, 4_000, 1_500},
		{8_001, 4_000, 1_500},
		{6_000, 4_000, 5_000},
		{6_000, 4_000, 2_000},
	}
	for _, mc := range replayMachines {
		t.Run(mc.name, func(t *testing.T) {
			for _, tc := range cases {
				cfg := Default(VMUltrix)
				cfg.WarmupInstrs = tc.warm
				cfg.SampleEvery = tc.every
				trc := tr(t, "gcc", tc.n)
				batch := mc.run(t, cfg, trc)

				// Step path: the invariant-checking per-reference loop.
				stepCfg := cfg
				stepCfg.CheckInvariants = true
				stepped := mc.run(t, stepCfg, trc)
				if len(stepped.Timeline) != len(batch.Timeline) {
					t.Fatalf("n=%d warm=%d every=%d: step path records %d samples, run path %d",
						tc.n, tc.warm, tc.every, len(stepped.Timeline), len(batch.Timeline))
				}
				for i := range batch.Timeline {
					if stepped.Timeline[i] != batch.Timeline[i] {
						t.Fatalf("n=%d warm=%d every=%d: step/run sample %d diverge",
							tc.n, tc.warm, tc.every, i)
					}
				}

				// Stream path: one ugly chunking that straddles both boundaries.
				mid := tc.warm + tc.every/2
				if mid > tc.n-1 {
					mid = tc.n - 1
				}
				streamed, _, _ := feedInto(t, mc.build(t, cfg), trc, [][]trace.Ref{
					trc.Refs[:1], trc.Refs[1:mid], trc.Refs[mid : tc.n-1], trc.Refs[tc.n-1:],
				})
				if len(streamed.Timeline) != len(batch.Timeline) {
					t.Fatalf("n=%d warm=%d every=%d: stream path records %d samples, run path %d",
						tc.n, tc.warm, tc.every, len(streamed.Timeline), len(batch.Timeline))
				}
				for i := range batch.Timeline {
					if streamed.Timeline[i] != batch.Timeline[i] {
						t.Fatalf("n=%d warm=%d every=%d: stream/run sample %d diverge",
							tc.n, tc.warm, tc.every, i)
					}
				}
			}
		})
	}
}
