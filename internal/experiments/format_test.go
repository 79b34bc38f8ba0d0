package experiments

import (
	"strings"
	"testing"
	"time"

	"hstoragedb/internal/engine/policy"
	"hstoragedb/internal/hybrid"
)

func TestFormatFig4(t *testing.T) {
	shares := TypeShares{{
		Query: 1,
		Requests: map[policy.RequestType]float64{
			policy.SequentialRequest: 1.0,
		},
		Blocks: map[policy.RequestType]float64{
			policy.SequentialRequest: 1.0,
		},
	}}
	out := shares.Format()
	if !strings.Contains(out, "Q1") || !strings.Contains(out, "100.0") {
		t.Fatalf("rendering:\n%s", out)
	}
}

func TestFormatModeTimes(t *testing.T) {
	rows := []ModeTimes{{
		Query: 9,
		Times: map[hybrid.Mode]time.Duration{
			hybrid.HDDOnly:  2 * time.Second,
			hybrid.LRU:      time.Second,
			hybrid.HStorage: 900 * time.Millisecond,
			hybrid.SSDOnly:  100 * time.Millisecond,
		},
	}}
	out := ModeTimesTable{"title", rows}.Format()
	for _, want := range []string{"title", "Q9", "2s", "900ms", "100ms"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestFormatTable4(t *testing.T) {
	out := Table4Rows{{Query: 1, Accessed: 1000, Hits: 3, Ratio: 0.003}}.Format()
	if !strings.Contains(out, "1000") || !strings.Contains(out, "0.3%") {
		t.Fatalf("rendering:\n%s", out)
	}
}

func TestFormatPrioTable(t *testing.T) {
	rows := []PrioRow{{Label: "prio2", Accessed: 10, Hits: 9}}
	out := PrioTable{Title: "t", HStorage: rows}.Format()
	if !strings.Contains(out, "prio2") || !strings.Contains(out, "90.0%") || strings.Contains(out, "LRU") {
		t.Fatalf("rendering:\n%s", out)
	}
}

func TestPrioRowRatioZero(t *testing.T) {
	if (PrioRow{}).Ratio() != 0 {
		t.Fatal("zero-access ratio not 0")
	}
}

func TestFormatTable9AndFig12(t *testing.T) {
	t9 := &ThroughputResult{
		QueriesPerHour: map[hybrid.Mode]float64{hybrid.HDDOnly: 10, hybrid.LRU: 20, hybrid.HStorage: 30, hybrid.SSDOnly: 100},
		Makespan:       map[hybrid.Mode]time.Duration{hybrid.HDDOnly: time.Hour},
	}
	out := t9.Format()
	if !strings.Contains(out, "30.0") {
		t.Fatalf("table9:\n%s", out)
	}
	f12 := &Fig12Result{
		Standalone: map[int]map[hybrid.Mode]time.Duration{9: {hybrid.LRU: time.Second}, 18: {}},
		Throughput: map[int]map[hybrid.Mode]time.Duration{9: {hybrid.LRU: 2 * time.Second}, 18: {}},
	}
	out = f12.Format()
	if !strings.Contains(out, "standalone") || !strings.Contains(out, "Q9") {
		t.Fatalf("fig12:\n%s", out)
	}
}

func TestConfigScaling(t *testing.T) {
	cfg := DefaultConfig()
	tp := cfg.ThroughputConfig()
	if tp.SF >= cfg.SF {
		t.Fatal("throughput config should shrink SF")
	}
	if tp.CacheRatio != 0.25 {
		t.Fatalf("throughput cache ratio %v", tp.CacheRatio)
	}
}

func TestEnvSizing(t *testing.T) {
	e := sharedTestEnv(t)
	if e.Data <= 0 {
		t.Fatal("no data pages")
	}
	if e.cacheBlocks() < 64 || e.bpPages() < 64 {
		t.Fatal("sizing floors violated")
	}
	if e.cacheBlocks() <= e.bpPages() {
		t.Fatal("cache should exceed the buffer pool at these ratios")
	}
}
