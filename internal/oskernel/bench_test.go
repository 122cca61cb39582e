package oskernel

import (
	"testing"

	"repro/internal/rng"
)

// BenchmarkTouch times one Kernel.Touch per op for every policy on two
// streams:
//
//   - evict: a hot set plus a long scan at 256 frames, warmed full, so
//     most faults evict (skipped for first-touch, which cannot evict);
//   - fill: fresh pages under an ample budget, so every touch admits
//     into a new slot and nothing is evicted. The kernel is rebuilt,
//     untimed, every fillPages touches.
//
// Both report allocations: a full kernel must not allocate, and a fill
// allocates only as its per-slot slices and index grow.
func BenchmarkTouch(b *testing.B) {
	const fillPages = 1 << 16
	r := rng.New(5)
	evict := make([]Page, 1<<16)
	for i := range evict {
		if r.Intn(4) == 0 {
			evict[i] = Page{ASID: uint8(i % 3), VPN: uint64(r.Intn(4096))}
		} else {
			evict[i] = Page{ASID: 1, VPN: 1<<20 + uint64(r.Intn(64))}
		}
	}
	for _, policy := range Policies() {
		b.Run(policy, func(b *testing.B) {
			if policy != "first-touch" {
				b.Run("evict", func(b *testing.B) {
					k, err := New(policy, 256, 1)
					if err != nil {
						b.Fatal(err)
					}
					for _, p := range evict {
						k.Touch(p.ASID, p.VPN)
					}
					b.ReportAllocs()
					b.ResetTimer()
					before := k.Evictions()
					for i := 0; i < b.N; i++ {
						p := evict[i&(len(evict)-1)]
						if _, _, _, err := k.Touch(p.ASID, p.VPN); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(k.Evictions()-before)/float64(b.N), "evictions/op")
				})
			}
			b.Run("fill", func(b *testing.B) {
				var k *Kernel
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if i%fillPages == 0 {
						b.StopTimer()
						var err error
						if k, err = New(policy, 1<<20, 1); err != nil {
							b.Fatal(err)
						}
						b.StartTimer()
					}
					vpn := uint64(i%fillPages) * 0x9E3779B1 % (1 << 32)
					if _, _, _, err := k.Touch(uint8(i%3), vpn); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}
