package simclock

import (
	"testing"
	"time"
)

// BenchmarkClock times the clock operations of the simulated hot path:
// Advance (one per charged tuple), AdvanceTo (a stream catching up to a
// device completion or a lock grant) and Now.
func BenchmarkClock(b *testing.B) {
	b.Run("Advance", func(b *testing.B) {
		b.ReportAllocs()
		var c Clock
		for i := 0; i < b.N; i++ {
			c.Advance(time.Nanosecond)
		}
	})
	b.Run("AdvanceTo", func(b *testing.B) {
		b.ReportAllocs()
		var c Clock
		for i := 0; i < b.N; i++ {
			c.AdvanceTo(Duration(i))
		}
	})
	b.Run("Now", func(b *testing.B) {
		b.ReportAllocs()
		var c Clock
		c.Advance(time.Second)
		var sum Duration
		for i := 0; i < b.N; i++ {
			sum += c.Now()
		}
		if sum < 0 {
			b.Fatal(sum)
		}
	})
}
