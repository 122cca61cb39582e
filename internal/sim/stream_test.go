package sim

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/rng"
	"repro/internal/simerr"
	"repro/internal/trace"
)

// chunkize splits refs into deterministic pseudo-random chunks: sizes
// drawn from src in 1..max, the last chunk absorbing the remainder.
func chunkize(src *rng.Source, refs []trace.Ref, max int) [][]trace.Ref {
	var out [][]trace.Ref
	for len(refs) > 0 {
		n := 1 + src.Intn(max)
		if n > len(refs) {
			n = len(refs)
		}
		out = append(out, refs[:n])
		refs = refs[n:]
	}
	return out
}

// replayCase is a machine the driver's contract tests run on.
type replayCase struct {
	name string
	new  func(Config) (replayMachine, error)
}

// replayMachines are the engine, and the cluster at one core and at two
// cores under an evicting OS policy.
var replayMachines = []replayCase{
	{"engine", func(c Config) (replayMachine, error) { return NewEngine(c) }},
	{"cores1", func(c Config) (replayMachine, error) {
		c.Cores = 1
		return NewMulticore(c)
	}},
	{"cores2", func(c Config) (replayMachine, error) {
		c.Cores, c.OSPolicy, c.MemFrames, c.ShootdownCost = 2, "lru", 64, 40
		return NewMulticore(c)
	}},
}

// build is new(cfg), failing the test on error.
func (rc replayCase) build(t *testing.T, cfg Config) replayMachine {
	t.Helper()
	m, err := rc.new(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// run replays trc through a fresh machine in one batch run.
func (rc replayCase) run(t *testing.T, cfg Config, trc *trace.Trace) *Result {
	t.Helper()
	res, err := rc.build(t, cfg).RunContext(context.Background(), trc)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// feedAll streams trc through a fresh engine in the given chunks and
// returns the result, the digest, and the live samples Feed handed back.
func feedAll(t *testing.T, cfg Config, trc *trace.Trace, chunks [][]trace.Ref) (*Result, Digest, []TimelineSample) {
	t.Helper()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return feedInto(t, e, trc, chunks)
}

// feedInto is feedAll through a given machine.
func feedInto(t *testing.T, e Streamer, trc *trace.Trace, chunks [][]trace.Ref) (*Result, Digest, []TimelineSample) {
	t.Helper()
	if err := e.BeginStream(trc.Name, trc.Len()); err != nil {
		t.Fatal(err)
	}
	var live []TimelineSample
	for _, c := range chunks {
		samples, err := e.Feed(c)
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, samples...)
	}
	res, err := e.EndStream()
	if err != nil {
		t.Fatal(err)
	}
	return res, e.Digest(), live
}

// TestStreamMatchesBatch is the differential oracle for the streaming
// feed API: for every bundled machine, a run fed in randomized chunk
// permutations must be bit-identical to the batch path — counters,
// timeline, and machine-state digest — and the samples Feed returned
// live must be exactly the ones EndStream's Result carries (minus the
// trailing partial interval, which only EndStream can close).
func TestStreamMatchesBatch(t *testing.T) {
	const n, warm, every = 30_000, 5_000, 1_700 // every deliberately divides nothing
	trc := tr(t, "gcc", n)
	for _, vm := range AllVMs() {
		t.Run(vm, func(t *testing.T) {
			cfg := Default(vm)
			cfg.WarmupInstrs = warm
			cfg.SampleEvery = every
			eb, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			batch, err := eb.Run(trc)
			if err != nil {
				t.Fatal(err)
			}
			batchDigest := eb.Digest()

			src := rng.New(0xBEEF ^ uint64(len(vm)))
			for perm := 0; perm < 4; perm++ {
				// Chunk granularities from single references to
				// multi-interval blocks, all in one sweep.
				max := []int{1, 37, 4096, n}[perm]
				chunks := chunkize(src, trc.Refs, max)
				res, dg, live := feedAll(t, cfg, trc, chunks)
				if res.Counters != batch.Counters {
					t.Fatalf("chunk max %d: streamed counters diverge:\n got  %+v\n want %+v",
						max, res.Counters, batch.Counters)
				}
				if dg != batchDigest {
					t.Fatalf("chunk max %d: machine-state digest diverges:\n got  %+v\n want %+v",
						max, dg, batchDigest)
				}
				if !reflect.DeepEqual(res.Timeline, batch.Timeline) {
					t.Fatalf("chunk max %d: timeline diverges:\n got  %+v\n want %+v",
						max, res.Timeline, batch.Timeline)
				}
				// Live rows are the result's timeline, in order; only the
				// trailing partial interval (if any) is EndStream's to add.
				want := res.Timeline
				if len(live) < len(want) {
					want = want[:len(live)]
				}
				if !reflect.DeepEqual(live, want) || len(want)+1 < len(res.Timeline) {
					t.Fatalf("chunk max %d: live samples != recorded timeline (%d live, %d recorded)",
						max, len(live), len(res.Timeline))
				}
			}
		})
	}
}

func TestStreamMatchesBatchUnsampled(t *testing.T) {
	// SampleEvery off: chunk boundaries fall only where Feed's warmup
	// split puts them.
	trc := tr(t, "vortex", 20_000)
	for _, vm := range []string{VMUltrix, VMIntel, VMNoTLB} {
		cfg := Default(vm)
		cfg.WarmupInstrs = 7_000
		batch, err := Simulate(cfg, trc)
		if err != nil {
			t.Fatal(err)
		}
		chunks := chunkize(rng.New(7), trc.Refs, 997)
		res, _, live := feedAll(t, cfg, trc, chunks)
		if res.Counters != batch.Counters {
			t.Fatalf("%s: unsampled streamed counters diverge", vm)
		}
		if len(live) != 0 || res.Timeline != nil {
			t.Fatalf("%s: samples recorded with SampleEvery=0", vm)
		}
	}
}

func TestStreamInvariantPathMatchesBatch(t *testing.T) {
	// CheckInvariants flips Feed onto the Step-per-reference loop; it
	// must still agree with the batch invariant path sample for sample.
	trc := tr(t, "gcc", 12_000)
	cfg := Default(VMMach)
	cfg.WarmupInstrs = 3_000
	cfg.SampleEvery = 2_500
	cfg.CheckInvariants = true
	for _, mc := range replayMachines {
		t.Run(mc.name, func(t *testing.T) {
			batch := mc.run(t, cfg, trc)
			chunks := chunkize(rng.New(11), trc.Refs, 313)
			res, _, _ := feedInto(t, mc.build(t, cfg), trc, chunks)
			if res.Counters != batch.Counters {
				t.Fatal("invariant-path streamed counters diverge from batch")
			}
			if !reflect.DeepEqual(res.Timeline, batch.Timeline) {
				t.Fatal("invariant-path streamed timeline diverges from batch")
			}
		})
	}
}

func TestStreamWarmupBoundaryInsideChunk(t *testing.T) {
	// One chunk spanning the whole trace: Feed must split it at the
	// warmup boundary internally.
	trc := tr(t, "gcc", 10_000)
	cfg := Default(VMUltrix)
	cfg.WarmupInstrs = 4_000
	cfg.SampleEvery = 3_000
	for _, mc := range replayMachines {
		t.Run(mc.name, func(t *testing.T) {
			batch := mc.run(t, cfg, trc)
			res, _, _ := feedInto(t, mc.build(t, cfg), trc, [][]trace.Ref{trc.Refs})
			if res.Counters != batch.Counters || !reflect.DeepEqual(res.Timeline, batch.Timeline) {
				t.Fatal("single-chunk stream diverges from batch")
			}
		})
	}
}

func TestStreamShortEndsCorrupt(t *testing.T) {
	trc := tr(t, "gcc", 2_000)
	cfg := Default(VMUltrix)
	cfg.WarmupInstrs = 0
	for _, mc := range replayMachines {
		t.Run(mc.name, func(t *testing.T) {
			e := mc.build(t, cfg)
			if err := e.BeginStream(trc.Name, trc.Len()); err != nil {
				t.Fatal(err)
			}
			if _, err := e.Feed(trc.Refs[:1_000]); err != nil {
				t.Fatal(err)
			}
			_, err := e.EndStream()
			if !errors.Is(err, simerr.ErrTraceCorrupt) {
				t.Fatalf("short stream finalized with err = %v, want ErrTraceCorrupt", err)
			}
		})
	}
}

func TestStreamOverfeedCorrupt(t *testing.T) {
	trc := tr(t, "gcc", 1_000)
	cfg := Default(VMUltrix)
	cfg.WarmupInstrs = 0
	for _, mc := range replayMachines {
		t.Run(mc.name, func(t *testing.T) {
			e := mc.build(t, cfg)
			if err := e.BeginStream(trc.Name, 500); err != nil {
				t.Fatal(err)
			}
			if _, err := e.Feed(trc.Refs[:500]); err != nil {
				t.Fatal(err)
			}
			if _, err := e.Feed(trc.Refs[500:501]); !errors.Is(err, simerr.ErrTraceCorrupt) {
				t.Fatalf("overfeed err = %v, want ErrTraceCorrupt", err)
			}
		})
	}
}

func TestStreamValidatesChunks(t *testing.T) {
	cfg := Default(VMUltrix)
	cfg.WarmupInstrs = 0
	for _, mc := range replayMachines {
		t.Run(mc.name, func(t *testing.T) {
			e := mc.build(t, cfg)
			if err := e.BeginStream("bad", -1); err != nil {
				t.Fatal(err)
			}
			if _, err := e.Feed([]trace.Ref{{PC: 0x1000, Kind: 99}}); !errors.Is(err, simerr.ErrTraceCorrupt) {
				t.Fatalf("invalid ref fed, err = %v, want ErrTraceCorrupt", err)
			}
			var ce *trace.CorruptError
			if _, err := e.Feed([]trace.Ref{{PC: 0x1000, Kind: 99}}); !errors.As(err, &ce) || ce.Index != 0 {
				t.Fatalf("corrupt ref not labelled with its stream index: %v", err)
			}
		})
	}
}

func TestStreamUnknownTotal(t *testing.T) {
	// total < 0: warmup is the configured count uncapped, and EndStream
	// accepts wherever the stream stops.
	trc := tr(t, "gcc", 8_000)
	cfg := Default(VMUltrix)
	cfg.WarmupInstrs = 2_000
	cfg.SampleEvery = 1_500
	for _, mc := range replayMachines {
		t.Run(mc.name, func(t *testing.T) {
			// The batch reference: same trace, same effective warmup (2000 <
			// 8000/2, so the cap does not bite and the two agree).
			batch := mc.run(t, cfg, trc)
			e := mc.build(t, cfg)
			if err := e.BeginStream(trc.Name, -1); err != nil {
				t.Fatal(err)
			}
			for _, c := range chunkize(rng.New(3), trc.Refs, 777) {
				if _, err := e.Feed(c); err != nil {
					t.Fatal(err)
				}
			}
			res, err := e.EndStream()
			if err != nil {
				t.Fatal(err)
			}
			if res.Counters != batch.Counters || !reflect.DeepEqual(res.Timeline, batch.Timeline) {
				t.Fatal("unknown-total stream diverges from batch at the same warmup")
			}
		})
	}
}

func TestStreamAPIMisuse(t *testing.T) {
	cfg := Default(VMUltrix)
	for _, mc := range replayMachines {
		t.Run(mc.name, func(t *testing.T) {
			e := mc.build(t, cfg)
			if _, err := e.Feed(nil); err == nil {
				t.Fatal("Feed before BeginStream accepted")
			}
			if _, err := e.EndStream(); err == nil {
				t.Fatal("EndStream before BeginStream accepted")
			}
			if err := e.BeginStream("x", -1); err != nil {
				t.Fatal(err)
			}
			if err := e.BeginStream("y", -1); err == nil {
				t.Fatal("nested BeginStream accepted")
			}
			if _, err := e.EndStream(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
