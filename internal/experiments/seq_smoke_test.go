package experiments

import (
	"testing"

	"hstoragedb/internal/hybrid"
)

// TestSequenceAndThroughput exercises the power-test and throughput-test
// drivers end to end at small scale.
func TestSequenceAndThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment drivers")
	}
	e := testEnv(t)

	res, err := e.Fig11()
	if err != nil {
		t.Fatalf("fig11: %v", err)
	}
	t.Logf("Table 8 totals: HDD=%v hStorage=%v SSD=%v",
		res.Totals[hybrid.HDDOnly], res.Totals[hybrid.HStorage], res.Totals[hybrid.SSDOnly])
	if res.Totals[hybrid.HStorage] >= res.Totals[hybrid.HDDOnly] {
		t.Errorf("hStorage (%v) should beat HDD-only (%v) on the power sequence",
			res.Totals[hybrid.HStorage], res.Totals[hybrid.HDDOnly])
	}
	if res.Totals[hybrid.SSDOnly] >= res.Totals[hybrid.HStorage] {
		t.Errorf("SSD-only (%v) should beat hStorage (%v)",
			res.Totals[hybrid.SSDOnly], res.Totals[hybrid.HStorage])
	}

	tEnv, err := NewEnv(e.Cfg.ThroughputConfig())
	if err != nil {
		t.Fatalf("throughput env: %v", err)
	}
	t9, err := tEnv.Table9(3)
	if err != nil {
		t.Fatalf("table9: %v", err)
	}
	t.Log("\n" + t9.Format())
	f12, err := tEnv.Fig12(t9)
	if err != nil {
		t.Fatalf("fig12: %v", err)
	}
	t.Log("\n" + f12.Format())

	qph := t9.QueriesPerHour
	if !(qph[hybrid.SSDOnly] > qph[hybrid.HStorage] &&
		qph[hybrid.HStorage] > qph[hybrid.LRU] &&
		qph[hybrid.LRU] > qph[hybrid.HDDOnly]) {
		t.Errorf("throughput ordering violated: %v", qph)
	}
}
