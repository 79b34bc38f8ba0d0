package tpch

import (
	"reflect"
	"testing"

	"hstoragedb/internal/device"
	"hstoragedb/internal/engine"
	"hstoragedb/internal/hybrid"
)

// A single-stream query is a pure function of (dataset, query, seed):
// run twice, each on a freshly loaded dataset (a run leaves the page
// store's extent map behind, so the second run on a shared store places
// its temp files elsewhere), the cache counters and both devices' stats
// must come out identical. Q18 aggregates, spills and joins on the
// aggregate's output (so map-ordered group emission or spill order shows
// up as a different temp-file and probe I/O order); Q9 and Q21 are the
// random-lookup queries whose probe order follows their build side.
func TestSingleStreamQueriesRepeat(t *testing.T) {
	type outcome struct {
		rows     int64
		snap     hybrid.Snapshot
		ssd, hdd device.Stats
	}
	run := func(q int) outcome {
		ds, err := Load(0.005)
		if err != nil {
			t.Fatal(err)
		}
		// A cache and pool well under the data and a work memory the
		// aggregate overflows: evictions, write-backs and spills all run.
		data := ds.DB.Store.TotalPages()
		inst, err := ds.DB.NewInstance(engine.InstanceConfig{
			Storage:         hybrid.Config{Mode: hybrid.HStorage, CacheBlocks: int(data) / 4},
			BufferPoolPages: 64,
			WorkMem:         100,
		})
		if err != nil {
			t.Fatal(err)
		}
		sess := inst.NewSession()
		op, err := ds.Query(q, 0)
		if err != nil {
			t.Fatal(err)
		}
		rows, _, err := sess.ExecuteDiscard(op)
		if err != nil {
			t.Fatalf("Q%d: %v", q, err)
		}
		inst.Mgr.Wait(&sess.Clk)
		return outcome{rows, inst.Sys.Stats(), inst.Sys.SSD().Stats(), inst.Sys.HDD().Stats()}
	}
	for _, q := range []int{18, 9, 21} {
		a, b := run(q), run(q)
		if a.rows != b.rows {
			t.Errorf("Q%d: %d rows, then %d", q, a.rows, b.rows)
		}
		if !reflect.DeepEqual(a.snap, b.snap) {
			t.Errorf("Q%d: cache snapshots differ between two runs:\n%v\n%v", q, a.snap, b.snap)
		}
		if !reflect.DeepEqual(a.ssd, b.ssd) {
			t.Errorf("Q%d: SSD stats differ between two runs:\n%+v\n%+v", q, a.ssd, b.ssd)
		}
		if !reflect.DeepEqual(a.hdd, b.hdd) {
			t.Errorf("Q%d: HDD stats differ between two runs:\n%+v\n%+v", q, a.hdd, b.hdd)
		}
	}
}
