package experiments

import (
	"testing"

	"hstoragedb/internal/hybrid"
)

// TestFig11ScansLevelWithHDDOnly holds Figure 11's Rule 1 statement inside
// the power sequence: a sequential-dominated query runs on hStorage-DB
// within 5 % of HDD-only even when the random-access query before it left
// part of its table cached (Q6 after Q20, Q15 after Q4 and Q11). Clean
// cached blocks of a scan are read from the HDD's head or readahead
// buffer, not one SSD page at a time; served from the SSD they cost
// about twice HDD-only's time.
func TestFig11ScansLevelWithHDDOnly(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SF = 0.005
	r, err := (&Suite{Cfg: cfg}).Run(byID(t, "fig11"), Params{})
	if err != nil {
		t.Fatal(err)
	}
	steps := map[string]SeqStep{}
	for _, s := range r.(*PowerResult).Steps {
		steps[s.Label] = s
	}
	for _, q := range []string{"Q6", "Q15"} {
		s, ok := steps[q]
		if !ok {
			t.Fatalf("no %s in the power sequence", q)
		}
		hs, hdd := s.Elapsed[hybrid.HStorage], s.Elapsed[hybrid.HDDOnly]
		if float64(hs) > 1.05*float64(hdd) {
			t.Errorf("%s: hStorage-DB %v, HDD-only %v: more than 5 %% slower", q, hs, hdd)
		}
	}
}
