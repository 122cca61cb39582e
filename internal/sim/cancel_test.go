package sim

import (
	"context"
	"errors"
	"testing"

	"repro/internal/simerr"
	"repro/internal/workload"
)

// TestRunContextMatchesRun forces the chunked cancellation path (a
// cancellable but never-cancelled context has a non-nil Done channel)
// and asserts it is bit-identical to the plain Run path.
func TestRunContextMatchesRun(t *testing.T) {
	p, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	// Longer than cancelCheckRefs so at least one chunk boundary is
	// crossed inside the live phase.
	tr := workload.Generate(p, 7, 2*cancelCheckRefs+12345)
	for _, vm := range []string{VMUltrix, VMIntel, VMBase} {
		cfg := Default(vm)
		plain, err := Simulate(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		chunked, err := SimulateContext(ctx, cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		if plain.Counters != chunked.Counters {
			t.Errorf("%s: chunked RunContext diverged from Run", vm)
		}
	}
}

// TestRunContextCancelledIsTyped: a pre-cancelled context aborts the
// run with an error matching both the taxonomy and the context package.
func TestRunContextCancelledIsTyped(t *testing.T) {
	p, _ := workload.ByName("gcc")
	tr := workload.Generate(p, 7, 5000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, mc := range replayMachines {
		t.Run(mc.name, func(t *testing.T) {
			_, err := mc.build(t, Default(VMUltrix)).RunContext(ctx, tr)
			if err == nil {
				t.Fatal("cancelled run returned no error")
			}
			if !errors.Is(err, simerr.ErrCancelled) {
				t.Errorf("error %v is not ErrCancelled", err)
			}
			if !errors.Is(err, context.Canceled) {
				t.Errorf("error %v is not context.Canceled", err)
			}
			if got := simerr.Category(err); got != "cancelled" {
				t.Errorf("category = %q", got)
			}
		})
	}
}

// TestRunContextCancelledWithInvariants covers the Step-loop fallback.
func TestRunContextCancelledWithInvariants(t *testing.T) {
	p, _ := workload.ByName("gcc")
	tr := workload.Generate(p, 7, 5000)
	cfg := Default(VMUltrix)
	cfg.CheckInvariants = true
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, mc := range replayMachines {
		t.Run(mc.name, func(t *testing.T) {
			if _, err := mc.build(t, cfg).RunContext(ctx, tr); !errors.Is(err, simerr.ErrCancelled) {
				t.Errorf("invariant path error %v is not ErrCancelled", err)
			}
		})
	}
}

// TestConfigInvalidIsTyped: validation failures classify as config
// errors across representative bad configurations.
func TestConfigInvalidIsTyped(t *testing.T) {
	bad := []Config{
		Default("nonesuch"),
		func() Config { c := Default(VMUltrix); c.L1SizeBytes = 0; return c }(),
		func() Config { c := Default(VMUltrix); c.L2SizeBytes = c.L1SizeBytes / 2; return c }(),
		func() Config { c := Default(VMUltrix); c.PhysMemBytes = 0; return c }(),
	}
	for i, cfg := range bad {
		err := cfg.Validate()
		if err == nil {
			t.Errorf("config %d validated", i)
			continue
		}
		if !errors.Is(err, simerr.ErrConfigInvalid) {
			t.Errorf("config %d: error %v is not ErrConfigInvalid", i, err)
		}
		if got := simerr.Category(err); got != "config" {
			t.Errorf("config %d: category = %q", i, got)
		}
	}
}
