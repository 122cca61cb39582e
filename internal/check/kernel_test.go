package check

import (
	"fmt"
	"testing"

	"repro/internal/oskernel"
	"repro/internal/rng"
	"repro/internal/simerr"
)

// kernelStream builds a deterministic page-demand stream for the
// kernel-level lockstep: a hot set spread over four address spaces, a
// wrapping scan over a footprint far larger than any tested budget
// (every scanned page is re-touched after a full lap, long after it was
// evicted), and re-touches of recently scanned pages at random lags.
// VPNs reach the top of the 32-bit range, so random's key order mixes
// address spaces and high pages.
func kernelStream(n int) []oskernel.Page {
	const (
		hot   = 40
		scan  = 1_200
		asids = 4
	)
	r := rng.New(2024)
	scanPage := func(i int) oskernel.Page {
		i %= scan
		return oskernel.Page{ASID: uint8(i % asids), VPN: uint64(i)*0x2C3B1 + 7}
	}
	stream := make([]oskernel.Page, 0, n)
	pos := 0
	for len(stream) < n {
		switch d := r.Intn(100); {
		case d < 75:
			h := r.Intn(hot)
			if r.Intn(2) == 0 {
				h = r.Intn(hot / 4) // skew: a quarter of the hot set gets half its touches
			}
			stream = append(stream, oskernel.Page{ASID: uint8(h % asids), VPN: 0xFFFF_FF00 + uint64(h/asids)})
		case d < 85:
			stream = append(stream, scanPage(pos))
			pos++
		default:
			lag := 1 + r.Intn(400)
			stream = append(stream, scanPage(pos+scan-lag))
		}
	}
	return stream
}

// TestKernelLockstep drives oskernel.Kernel and the naive refKernel
// through the same 200k-touch stream, for every policy at budgets from
// one frame (every fault evicts the only slot) through 256, and
// unbounded. Every Touch must agree: victim page, whether one was
// evicted, whether the touch faulted, and the error category — so slot
// reuse, hand wrap-around and exhaustion are pinned at the small
// budgets where they break first.
func TestKernelLockstep(t *testing.T) {
	stream := kernelStream(200_000)
	for _, policy := range oskernel.Policies() {
		for _, frames := range []int{1, 2, 3, 96, 256, 0} {
			policy, frames := policy, frames
			t.Run(fmt.Sprintf("%s/frames=%d", policy, frames), func(t *testing.T) {
				t.Parallel()
				const seed = 42
				k, err := oskernel.New(policy, frames, seed)
				if err != nil {
					t.Fatal(err)
				}
				ref := newRefKernel(policy, frames, seed)
				var evictions int
				for i, p := range stream {
					ev, have, fault, err := k.Touch(p.ASID, p.VPN)
					rev, rhave, rfault, rerr := ref.touch(p.ASID, p.VPN)
					if have != rhave || ev != rev || fault != rfault || simerr.Category(err) != simerr.Category(rerr) {
						t.Fatalf("touch %d of %+v: kernel evicted=%+v/%v fault=%v err=%v; reference evicted=%+v/%v fault=%v err=%v",
							i, p, ev, have, fault, err, rev, rhave, rfault, rerr)
					}
					if have {
						evictions++
					}
				}
				if k.Resident() != len(ref.pages) || k.Faults() != ref.faults || k.Evictions() != ref.evicts {
					t.Fatalf("totals: kernel resident=%d faults=%d evictions=%d; reference %d/%d/%d",
						k.Resident(), k.Faults(), k.Evictions(), len(ref.pages), ref.faults, ref.evicts)
				}
				if frames > 0 && policy != "first-touch" && evictions == 0 {
					t.Fatalf("stream never evicted under %d frames", frames)
				}
			})
		}
	}
}
