package device

import (
	"testing"
	"time"
)

// BenchmarkDevice times one single-block access on the HDD and the SSD
// model, alternating a sequential and a random block so both positioning
// paths run, and the busy-horizon read the I/O scheduler makes at every
// enqueue and pick.
func BenchmarkDevice(b *testing.B) {
	for _, spec := range []Spec{Cheetah15K(), Intel320()} {
		b.Run("Access/"+spec.Name, func(b *testing.B) {
			b.ReportAllocs()
			d := New(spec)
			var at time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lba := int64(i)
				if i%2 == 1 {
					lba = int64(i) * 7919 % (1 << 20)
				}
				at = d.Access(at, Read, lba, 1)
			}
		})
	}
	b.Run("BusyUntil", func(b *testing.B) {
		b.ReportAllocs()
		d := New(Intel320())
		d.Access(0, Write, 0, 64)
		var sum time.Duration
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sum += d.BusyUntil()
		}
		if sum < 0 {
			b.Fatal(sum)
		}
	})
}
