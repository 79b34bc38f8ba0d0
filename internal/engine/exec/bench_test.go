package exec_test

import (
	"strconv"
	"testing"

	"hstoragedb/internal/engine/catalog"
	"hstoragedb/internal/engine/exec"
)

// The plans the layer benchmarks and the allocation budget run, over the
// fixture's kv (1000 rows) and ref (100 rows). limit cuts the rows that
// get past the first filter without changing the pages read, the build
// side or the set of groups, so two limits differ in per-row cost only.

// pipelinePlan: scan → filter → project → probe side of a hash join →
// aggregate into one of seven groups.
func pipelinePlan(f *fixture, limit int64) exec.Operator {
	return &exec.HashAgg{
		Child: &exec.HashJoin{
			Build: &exec.Hash{Child: &exec.SeqScan{Table: f.ref}},
			Probe: &exec.Project{
				Child: &exec.Filter{
					Child: &exec.SeqScan{Table: f.kv},
					Pred:  func(tu catalog.Tuple) bool { return tu[0].I < limit },
				},
				Fn: func(dst, tu catalog.Tuple) catalog.Tuple { return append(dst, tu[2], tu[1], tu[0]) },
			},
			BuildKey: func(tu catalog.Tuple) int64 { return tu[0].I },
			ProbeKey: func(tu catalog.Tuple) int64 { return tu[2].I % 100 },
			Combine:  func(dst, b, p catalog.Tuple) catalog.Tuple { return append(dst, p[0], p[1], b[1]) },
		},
		GroupKey: func(key []byte, tu catalog.Tuple) []byte {
			return strconv.AppendInt(append(append(key, tu[1].S[:1]...), '|'), tu[0].I, 10)
		},
		NewGroup: func(tu catalog.Tuple) catalog.Tuple { return catalog.Tuple{tu[0], tu[2]} },
		Merge: func(acc, tu catalog.Tuple) catalog.Tuple {
			acc[1].F += tu[2].F
			return acc
		},
	}
}

func scanFilterAggPlan(f *fixture) exec.Operator {
	return &exec.HashAgg{
		Child: &exec.Filter{
			Child: &exec.SeqScan{Table: f.kv},
			Pred:  func(tu catalog.Tuple) bool { return tu[0].I%2 == 0 },
		},
		GroupKey: func(key []byte, tu catalog.Tuple) []byte { return strconv.AppendInt(key, tu[2].I, 10) },
		NewGroup: func(tu catalog.Tuple) catalog.Tuple { return catalog.Tuple{tu[2], catalog.IntDatum(1)} },
		Merge: func(acc, tu catalog.Tuple) catalog.Tuple {
			acc[1].I++
			return acc
		},
	}
}

func hashJoinProbePlan(f *fixture) exec.Operator {
	return &exec.HashJoin{
		Build:    &exec.Hash{Child: &exec.SeqScan{Table: f.ref}},
		Probe:    &exec.SeqScan{Table: f.kv},
		BuildKey: func(tu catalog.Tuple) int64 { return tu[0].I },
		ProbeKey: func(tu catalog.Tuple) int64 { return tu[0].I % 100 },
	}
}

func nestLoopPlan(f *fixture) exec.Operator {
	return &exec.NestLoop{
		Outer:    &exec.SeqScan{Table: f.kv},
		Probe:    &exec.IndexProbe{Index: f.db.Cat.MustIndex("ref_id"), Table: f.ref},
		OuterKey: func(tu catalog.Tuple) int64 { return tu[0].I % 100 },
	}
}

func keptScanPlan(f *fixture, limit int64) exec.Operator {
	return &exec.SeqScan{Table: f.kv, Pred: func(tu catalog.Tuple) bool { return tu[0].I < limit }}
}

// spillRoundTrip writes rows to a temp file, reads them back and drops
// it; it returns the pages the file took.
func spillRoundTrip(tb testing.TB, ctx *exec.Ctx, rows []catalog.Tuple) int64 {
	tf, err := ctx.CreateTemp()
	if err != nil {
		tb.Fatal(err)
	}
	for _, r := range rows {
		if err := tf.Append(ctx, r); err != nil {
			tb.Fatal(err)
		}
	}
	if err := tf.Finish(ctx); err != nil {
		tb.Fatal(err)
	}
	n := 0
	for r := tf.NewReader(); ; n++ {
		_, ok, err := r.Next(ctx)
		if err != nil {
			tb.Fatal(err)
		}
		if !ok {
			break
		}
	}
	if n != len(rows) {
		tb.Fatalf("read %d of %d spilled rows", n, len(rows))
	}
	if err := ctx.DropTemp(tf); err != nil {
		tb.Fatal(err)
	}
	ctx.ReclaimTemps()
	return tf.Pages()
}

func benchPlan(b *testing.B, plan func(*fixture) exec.Operator) {
	f := newFixture(b, 100000)
	sess := f.inst.NewSession()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sess.ExecuteDiscard(plan(f)); err != nil {
			b.Fatal(err)
		}
	}
}

// One op is one plan over the 1000 rows of kv, pool-resident.
func BenchmarkScanFilterAgg(b *testing.B) { benchPlan(b, scanFilterAggPlan) }
func BenchmarkHashJoinProbe(b *testing.B) { benchPlan(b, hashJoinProbePlan) }
func BenchmarkNestLoop(b *testing.B)      { benchPlan(b, nestLoopPlan) }

// One op spills 1000 rows (5 pages) and reads them back.
func BenchmarkSpillRoundTrip(b *testing.B) {
	f := newFixture(b, 100000)
	rows := f.run(b, &exec.SeqScan{Table: f.kv})
	sess := f.inst.NewSession()
	ctx := sess.Ctx()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spillRoundTrip(b, ctx, rows)
	}
}

// TestExecAllocationBudget holds the executor to its row contract in
// mallocs. A row that is passed along (scan → filter → project → probe
// side → aggregate into an existing group) costs none; a row that is
// kept costs at most two (its Datum slab and one backing for its
// strings); a spilled record costs none on the way out or back in, only
// the page buffer every 8 KB does.
func TestExecAllocationBudget(t *testing.T) {
	f := newFixture(t, 100000)
	sess := f.inst.NewSession()
	allocs := func(plan func() exec.Operator, run func(exec.Operator) error) float64 {
		return testing.AllocsPerRun(5, func() {
			if err := run(plan()); err != nil {
				t.Fatal(err)
			}
		})
	}
	discard := func(op exec.Operator) error { _, _, err := sess.ExecuteDiscard(op); return err }
	keep := func(op exec.Operator) error { _, err := sess.Execute(op); return err }
	const few, all = 200, 1000

	passed := allocs(func() exec.Operator { return pipelinePlan(f, all) }, discard) -
		allocs(func() exec.Operator { return pipelinePlan(f, few) }, discard)
	if passed >= 1 {
		t.Errorf("%d more rows through the pipeline cost %.0f allocations, want 0", all-few, passed)
	}

	// Beyond two per row, Run's result slice grows a few times.
	kept := allocs(func() exec.Operator { return keptScanPlan(f, all) }, keep) -
		allocs(func() exec.Operator { return keptScanPlan(f, few) }, keep)
	if kept > 2*(all-few)+8 {
		t.Errorf("%d more rows kept cost %.0f allocations, want at most 2 each", all-few, kept)
	}

	// Records of under 40 bytes: the 201 appended here fit one page.
	ctx := sess.Ctx()
	rows := f.run(t, &exec.SeqScan{Table: f.kv})
	tf, err := ctx.CreateTemp()
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	appendOne := func() {
		if err := tf.Append(ctx, rows[next]); err != nil {
			t.Fatal(err)
		}
		next++
	}
	appendOne() // the page buffer
	if a := testing.AllocsPerRun(200, appendOne); a != 0 {
		t.Errorf("TempFile.Append allocates %.2f times per record", a)
	}
	if err := tf.Finish(ctx); err != nil {
		t.Fatal(err)
	}
	if tf.Pages() != 1 {
		t.Fatalf("%d records took %d pages, want 1", next, tf.Pages())
	}
	r := tf.NewReader()
	readOne := func() {
		if _, ok, err := r.Next(ctx); !ok || err != nil {
			t.Fatalf("reader: %v %v", ok, err)
		}
	}
	readOne() // the page, and the first slab
	readOne() // the second slab
	if a := testing.AllocsPerRun(190, readOne); a != 0 {
		t.Errorf("TempReader.Next allocates %.2f times per record", a)
	}
	// A whole file: what is left is per page (the buffer, the pool's
	// frame entry, the write-back), not per record.
	var pages int64
	perFile := testing.AllocsPerRun(5, func() { pages = spillRoundTrip(t, ctx, rows) })
	if perFile > float64(10*pages) {
		t.Errorf("spilling and reading %d records over %d pages allocated %.0f times", len(rows), pages, perFile)
	}
}
