package obs

import "time"

// defaultLatencyBounds are the upper bounds of the default histogram
// buckets: the latency ladder the device layer has always used. The last
// implicit bucket is +Inf. The spacing is roughly logarithmic, wide
// enough to separate an SSD cache hit (~tens of microseconds) from a
// queued HDD random access (~tens of milliseconds).
var defaultLatencyBounds = []time.Duration{
	20 * time.Microsecond, 50 * time.Microsecond, 100 * time.Microsecond,
	200 * time.Microsecond, 500 * time.Microsecond,
	time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond,
	10 * time.Millisecond, 20 * time.Millisecond, 50 * time.Millisecond,
	100 * time.Millisecond, 200 * time.Millisecond, 500 * time.Millisecond,
	time.Second, 2 * time.Second, 5 * time.Second,
}

// MaxHistogramBuckets is the most buckets (bound table entries plus the
// overflow slot) any Histogram can hold. The count array is fixed-size
// so a Histogram copies by value: snapshots taken while the original
// keeps updating share nothing mutable.
const MaxHistogramBuckets = 24

// CountBounds returns a power-of-two bound table for histograms over
// small integer samples (group-commit batch sizes, queue depths)
// recorded as time.Duration(n). Quantiles then interpolate between
// powers of two instead of collapsing into the first latency bucket.
func CountBounds() []time.Duration {
	return []time.Duration{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}
}

// Histogram is the single shared fixed-bucket histogram of the
// observability layer (lifted from the device layer's latency
// histogram, which is now an alias of this type). It records samples —
// latencies, or small integers disguised as durations — into a bound
// table plus an overflow slot, and estimates quantiles by linear
// interpolation inside the containing bucket.
//
// The zero value is an empty histogram over the default latency bounds.
// A Histogram is a plain value (not safe for concurrent use on its own);
// copying one yields an independent snapshot. Registry histograms wrap
// it in a HistVar, which adds the lock.
type Histogram struct {
	// bounds is the shared immutable upper-bound table; nil means the
	// default latency ladder. It is never mutated after construction, so
	// value copies may alias it safely.
	bounds []time.Duration

	// Buckets counts samples at most the matching entry of the bound
	// table; the slot at index len(bounds) counts overflows. Slots past
	// the overflow slot are unused.
	Buckets [MaxHistogramBuckets]int64
	// Count, Sum and Max summarize the recorded samples exactly.
	Count int64
	Sum   time.Duration
	Max   time.Duration
}

// NewHistogram returns an empty histogram over a custom bound table
// (ascending; at most MaxHistogramBuckets-1 entries, extras dropped).
// The table is copied, so the caller may reuse its slice.
func NewHistogram(bounds []time.Duration) Histogram {
	if len(bounds) > MaxHistogramBuckets-1 {
		bounds = bounds[:MaxHistogramBuckets-1]
	}
	return Histogram{bounds: append([]time.Duration(nil), bounds...)}
}

// boundTable returns the active bound table.
func (h *Histogram) boundTable() []time.Duration {
	if h.bounds == nil {
		return defaultLatencyBounds
	}
	return h.bounds
}

// Bounds returns (a copy of) the histogram's bucket bound table.
func (h *Histogram) Bounds() []time.Duration {
	return append([]time.Duration(nil), h.boundTable()...)
}

// Observe records one sample. Negative samples clamp to zero.
func (h *Histogram) Observe(v time.Duration) {
	if v < 0 {
		v = 0
	}
	bounds := h.boundTable()
	i := 0
	for i < len(bounds) && v > bounds[i] {
		i++
	}
	h.Buckets[i]++
	h.Count++
	h.Sum += v
	if v > h.Max {
		h.Max = v
	}
}

// Merge folds another histogram into h (used to combine the SSD and HDD
// views of one request class). Both histograms must share a bound
// table; an empty h adopts o's.
func (h *Histogram) Merge(o Histogram) {
	if h.bounds == nil && o.bounds != nil {
		h.bounds = o.bounds
	}
	for i := range h.Buckets {
		h.Buckets[i] += o.Buckets[i]
	}
	h.Count += o.Count
	h.Sum += o.Sum
	if o.Max > h.Max {
		h.Max = o.Max
	}
}

// Mean returns the average recorded sample.
func (h *Histogram) Mean() time.Duration {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / time.Duration(h.Count)
}

// Quantile estimates the q-quantile (0 < q <= 1) by linear interpolation
// inside the bucket that contains it. The estimate for the overflow
// bucket is the recorded maximum.
func (h *Histogram) Quantile(q float64) time.Duration {
	return time.Duration(h.QuantileF(q))
}

// QuantileF is Quantile at float precision: count-unit histograms need
// the fractional part to round estimates up to the whole sample values
// they stand for, which Quantile's truncation would discard.
func (h *Histogram) QuantileF(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	bounds := h.boundTable()
	rank := q * float64(h.Count)
	var cum float64
	for i := 0; i <= len(bounds); i++ {
		n := h.Buckets[i]
		cum += float64(n)
		if cum < rank || n == 0 {
			continue
		}
		if i >= len(bounds) {
			return float64(h.Max)
		}
		lo := time.Duration(0)
		if i > 0 {
			lo = bounds[i-1]
		}
		hi := bounds[i]
		if hi > h.Max {
			hi = h.Max
		}
		if hi < lo {
			return float64(lo)
		}
		frac := 1 - (cum-rank)/float64(n)
		return float64(lo) + frac*float64(hi-lo)
	}
	return float64(h.Max)
}
