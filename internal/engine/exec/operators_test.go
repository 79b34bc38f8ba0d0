package exec_test

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"testing"

	"hstoragedb/internal/dss"
	"hstoragedb/internal/engine"
	"hstoragedb/internal/engine/catalog"
	"hstoragedb/internal/engine/exec"
	"hstoragedb/internal/hybrid"
)

// fixture builds a database with two small tables:
//
//	kv(k int64, v string, grp int64)          — 1000 rows, k = 0..999
//	ref(id int64, weight float64)             — 100 rows, id = 0..99
//
// plus an index on kv.k and on ref.id.
type fixture struct {
	db   *engine.Database
	inst *engine.Instance
	kv   *exec.TableHandle
	ref  *exec.TableHandle
}

func newFixture(t testing.TB, workMem int) *fixture {
	return newFixtureBP(t, workMem, 64)
}

// newFixtureBP also controls the buffer pool size, for tests that need
// spilled data to actually reach storage.
func newFixtureBP(t testing.TB, workMem, bpPages int) *fixture {
	t.Helper()
	db := engine.NewDatabase()
	kvInfo, err := db.CreateTable("kv", catalog.NewSchema(
		catalog.Column{Name: "k", Type: catalog.Int64},
		catalog.Column{Name: "v", Type: catalog.String},
		catalog.Column{Name: "grp", Type: catalog.Int64},
	))
	if err != nil {
		t.Fatal(err)
	}
	refInfo, err := db.CreateTable("ref", catalog.NewSchema(
		catalog.Column{Name: "id", Type: catalog.Int64},
		catalog.Column{Name: "weight", Type: catalog.Float64},
	))
	if err != nil {
		t.Fatal(err)
	}

	inst, err := db.NewInstance(engine.InstanceConfig{
		Storage:         hybrid.Config{Mode: hybrid.HStorage, CacheBlocks: 2048},
		BufferPoolPages: bpPages,
		WorkMem:         workMem,
	})
	if err != nil {
		t.Fatal(err)
	}
	l, err := inst.NewLoader("kv")
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 1000; i++ {
		if _, err := l.Add(catalog.Tuple{
			catalog.IntDatum(i),
			catalog.StringDatum(fmt.Sprintf("v%d", i)),
			catalog.IntDatum(i % 7),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, err = inst.NewLoader("ref")
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 100; i++ {
		if _, err := l.Add(catalog.Tuple{
			catalog.IntDatum(i),
			catalog.FloatDatum(float64(i) / 2),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := inst.BuildIndex("kv_k", "kv", "k"); err != nil {
		t.Fatal(err)
	}
	if _, err := inst.BuildIndex("ref_id", "ref", "id"); err != nil {
		t.Fatal(err)
	}
	return &fixture{
		db:   db,
		inst: inst,
		kv:   exec.NewTableHandle(kvInfo),
		ref:  exec.NewTableHandle(refInfo),
	}
}

func (f *fixture) run(t testing.TB, op exec.Operator) []catalog.Tuple {
	t.Helper()
	sess := f.inst.NewSession()
	res, err := sess.Execute(op)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		for _, d := range row {
			if d.I == stale.I || d.S == stale.S {
				t.Fatalf("output row %v was read after its validity ended", row)
			}
		}
	}
	return res.Rows
}

// stale is what a scribbled-over row holds.
var stale = catalog.Datum{I: math.MinInt64 + 0x5CB, F: math.Inf(-1), S: "<stale row>"}

// scribble enforces the Operator.Next contract on whoever consumes it:
// it hands out each row of its child in a slab of its own and, on the
// next Next, overwrites that slab with stale datums. A consumer that
// reads a row past the next call, or keeps one without Tuple.Owned, sees
// stale instead of data that happens to be still right. Everything but
// Next is the child's, so a plan's levels are what they are without it.
type scribble struct {
	exec.Operator
	last catalog.Tuple
}

func scr(child exec.Operator) exec.Operator { return &scribble{Operator: child} }

func (s *scribble) Next(ctx *exec.Ctx) (catalog.Tuple, bool, error) {
	for i := range s.last {
		s.last[i] = stale
	}
	t, ok, err := s.Operator.Next(ctx)
	if err != nil || !ok {
		return nil, false, err
	}
	s.last = t.Clone()
	return s.last, true, nil
}

func TestSeqScanAll(t *testing.T) {
	f := newFixture(t, 10000)
	rows := f.run(t, &exec.SeqScan{Table: f.kv})
	if len(rows) != 1000 {
		t.Fatalf("scanned %d rows", len(rows))
	}
}

func TestSeqScanPredicate(t *testing.T) {
	f := newFixture(t, 10000)
	rows := f.run(t, &exec.SeqScan{Table: f.kv, Pred: func(tu catalog.Tuple) bool { return tu[0].I < 10 }})
	if len(rows) != 10 {
		t.Fatalf("filtered scan returned %d rows", len(rows))
	}
}

func TestIndexScanRange(t *testing.T) {
	f := newFixture(t, 10000)
	rows := f.run(t, &exec.IndexScan{
		Index: f.db.Cat.MustIndex("kv_k"),
		Table: f.kv,
		Lo:    100, Hi: 199,
	})
	if len(rows) != 100 {
		t.Fatalf("index range returned %d rows", len(rows))
	}
	for _, r := range rows {
		if r[0].I < 100 || r[0].I > 199 {
			t.Fatalf("out of range row %v", r)
		}
	}
}

func TestIndexScanKeyOnly(t *testing.T) {
	f := newFixture(t, 10000)
	rows := f.run(t, &exec.IndexScan{
		Index: f.db.Cat.MustIndex("kv_k"),
		Table: f.kv,
		Lo:    0, Hi: 4, KeyOnly: true,
	})
	if len(rows) != 5 {
		t.Fatalf("key-only scan returned %d rows", len(rows))
	}
	if len(rows[0]) != 1 {
		t.Fatalf("key-only tuple has %d columns", len(rows[0]))
	}
}

func TestNestLoopJoin(t *testing.T) {
	f := newFixture(t, 10000)
	// kv rows with k < 50 joined to ref on k%100 == id.
	nl := &exec.NestLoop{
		Outer: scr(&exec.SeqScan{Table: f.kv, Pred: func(tu catalog.Tuple) bool { return tu[0].I < 50 }}),
		Probe: &exec.IndexProbe{
			Index: f.db.Cat.MustIndex("ref_id"),
			Table: f.ref,
		},
		OuterKey: func(tu catalog.Tuple) int64 { return tu[0].I % 100 },
	}
	rows := f.run(t, nl)
	if len(rows) != 50 {
		t.Fatalf("join returned %d rows", len(rows))
	}
	for _, r := range rows {
		if r[0].I%100 != r[3].I {
			t.Fatalf("mismatched join row %v", r)
		}
	}
}

func TestNestLoopSemiAnti(t *testing.T) {
	f := newFixture(t, 10000)
	mk := func(semi, anti bool) *exec.NestLoop {
		return &exec.NestLoop{
			Outer: scr(&exec.SeqScan{Table: f.kv, Pred: func(tu catalog.Tuple) bool { return tu[0].I < 200 }}),
			Probe: &exec.IndexProbe{Index: f.db.Cat.MustIndex("ref_id"), Table: f.ref},
			// Keys 0..99 match ref; 100..199 do not.
			OuterKey: func(tu catalog.Tuple) int64 { return tu[0].I },
			Semi:     semi,
			Anti:     anti,
			Combine:  func(dst, o, i catalog.Tuple) catalog.Tuple { return append(dst, o...) },
		}
	}
	semi := f.run(t, mk(true, false))
	if len(semi) != 100 {
		t.Fatalf("semi join returned %d rows, want 100", len(semi))
	}
	anti := f.run(t, mk(false, true))
	if len(anti) != 100 {
		t.Fatalf("anti join returned %d rows, want 100", len(anti))
	}
	for _, r := range anti {
		if r[0].I < 100 {
			t.Fatalf("anti join leaked matching row %v", r)
		}
	}
}

func hashJoinRows(t testing.TB, f *fixture) []catalog.Tuple {
	t.Helper()
	j := &exec.HashJoin{
		Build:    scr(&exec.Hash{Child: scr(&exec.SeqScan{Table: f.ref})}),
		Probe:    scr(&exec.SeqScan{Table: f.kv}),
		BuildKey: func(tu catalog.Tuple) int64 { return tu[0].I },
		ProbeKey: func(tu catalog.Tuple) int64 { return tu[0].I % 100 },
	}
	return f.run(t, j)
}

func TestHashJoinInMemory(t *testing.T) {
	f := newFixture(t, 100000) // no spill
	rows := hashJoinRows(t, f)
	if len(rows) != 1000 {
		t.Fatalf("join returned %d rows", len(rows))
	}
}

func TestHashJoinGraceSpillMatchesInMemory(t *testing.T) {
	big := newFixture(t, 100000)
	want := hashJoinRows(t, big)

	small := newFixtureBP(t, 10, 8) // grace partitioning; temp reaches storage
	got := hashJoinRows(t, small)
	if len(got) != len(want) {
		t.Fatalf("spilled join returned %d rows, in-memory %d", len(got), len(want))
	}
	// Same multiset of join keys.
	count := func(rows []catalog.Tuple) map[int64]int {
		m := map[int64]int{}
		for _, r := range rows {
			m[r[0].I]++
		}
		return m
	}
	cw, cg := count(want), count(got)
	for k, n := range cw {
		if cg[k] != n {
			t.Fatalf("key %d: %d vs %d", k, cg[k], n)
		}
	}
	// The spill generated and reclaimed temporary data.
	snap := small.inst.Sys.Stats()
	if snap.Trimmed == 0 {
		t.Fatal("grace join produced no TRIMs — temp lifecycle broken")
	}
	// No temp objects leaked in the page store.
	for _, id := range small.db.Store.Objects() {
		if catalog.IsTemp(id) {
			t.Fatalf("temp object %d leaked", id)
		}
	}
}

func TestHashJoinSemiAnti(t *testing.T) {
	f := newFixture(t, 100000)
	mk := func(semi, anti bool) *exec.HashJoin {
		return &exec.HashJoin{
			Build:    scr(&exec.Hash{Child: scr(&exec.SeqScan{Table: f.ref})}),
			Probe:    scr(&exec.SeqScan{Table: f.kv, Pred: func(tu catalog.Tuple) bool { return tu[0].I < 200 }}),
			BuildKey: func(tu catalog.Tuple) int64 { return tu[0].I },
			ProbeKey: func(tu catalog.Tuple) int64 { return tu[0].I },
			Semi:     semi,
			Anti:     anti,
			Combine:  func(dst, b, p catalog.Tuple) catalog.Tuple { return append(dst, p...) },
		}
	}
	if got := len(f.run(t, mk(true, false))); got != 100 {
		t.Fatalf("hash semi: %d rows", got)
	}
	anti := f.run(t, mk(false, true))
	if len(anti) != 100 {
		t.Fatalf("hash anti: %d rows", len(anti))
	}
	for _, r := range anti {
		if r[0].I < 100 {
			t.Fatalf("anti leaked %v", r)
		}
	}
}

func aggRows(t *testing.T, f *fixture) []catalog.Tuple {
	t.Helper()
	agg := &exec.HashAgg{
		Child:    scr(&exec.SeqScan{Table: f.kv}),
		GroupKey: func(key []byte, tu catalog.Tuple) []byte { return strconv.AppendInt(key, tu[2].I, 10) },
		NewGroup: func(tu catalog.Tuple) catalog.Tuple {
			return catalog.Tuple{tu[2], catalog.IntDatum(1)}
		},
		Merge: func(acc, tu catalog.Tuple) catalog.Tuple {
			acc[1].I++
			return acc
		},
	}
	return f.run(t, agg)
}

func TestHashAggCounts(t *testing.T) {
	f := newFixture(t, 100000)
	rows := aggRows(t, f)
	if len(rows) != 7 {
		t.Fatalf("agg produced %d groups", len(rows))
	}
	var total int64
	for _, r := range rows {
		total += r[1].I
	}
	if total != 1000 {
		t.Fatalf("group counts sum to %d", total)
	}
}

func TestHashAggSpillMatchesInMemory(t *testing.T) {
	// WorkMem of 3 < 7 groups forces partition spilling.
	big := newFixture(t, 100000)
	want := aggRows(t, big)
	small := newFixture(t, 3)
	got := aggRows(t, small)
	if len(got) != len(want) {
		t.Fatalf("spilled agg: %d groups, want %d", len(got), len(want))
	}
	sum := func(rows []catalog.Tuple) map[int64]int64 {
		m := map[int64]int64{}
		for _, r := range rows {
			m[r[0].I] = r[1].I
		}
		return m
	}
	sw, sg := sum(want), sum(got)
	for k, v := range sw {
		if sg[k] != v {
			t.Fatalf("group %d: %d vs %d", k, sg[k], v)
		}
	}
}

func TestSortInMemoryAndExternal(t *testing.T) {
	for _, workMem := range []int{100000, 37} {
		f := newFixture(t, workMem)
		s := &exec.Sort{
			Child: scr(&exec.SeqScan{Table: f.kv}),
			Less:  func(a, b catalog.Tuple) bool { return a[0].I > b[0].I }, // descending
		}
		rows := f.run(t, s)
		if len(rows) != 1000 {
			t.Fatalf("workMem=%d: sorted %d rows", workMem, len(rows))
		}
		if !sort.SliceIsSorted(rows, func(i, j int) bool { return rows[i][0].I > rows[j][0].I }) {
			t.Fatalf("workMem=%d: output not sorted", workMem)
		}
		// External sort must clean up its run files.
		for _, id := range f.db.Store.Objects() {
			if catalog.IsTemp(id) {
				t.Fatalf("workMem=%d: leaked temp %d", workMem, id)
			}
		}
	}
}

func TestTopN(t *testing.T) {
	f := newFixture(t, 100000)
	top := &exec.TopN{
		Child: scr(&exec.SeqScan{Table: f.kv}),
		N:     5,
		Less:  func(a, b catalog.Tuple) bool { return a[0].I > b[0].I },
	}
	rows := f.run(t, top)
	if len(rows) != 5 {
		t.Fatalf("topN returned %d", len(rows))
	}
	if rows[0][0].I != 999 || rows[4][0].I != 995 {
		t.Fatalf("topN rows %v .. %v", rows[0], rows[4])
	}
}

func TestFilterProjectLimit(t *testing.T) {
	f := newFixture(t, 100000)
	op := &exec.Limit{
		N: 3,
		Child: scr(&exec.Project{
			Child: scr(&exec.Filter{
				Child: scr(&exec.SeqScan{Table: f.kv}),
				Pred:  func(tu catalog.Tuple) bool { return tu[0].I%2 == 0 },
			}),
			Fn: func(dst, tu catalog.Tuple) catalog.Tuple { return append(dst, tu[0]) },
		}),
	}
	rows := f.run(t, op)
	if len(rows) != 3 {
		t.Fatalf("limit returned %d", len(rows))
	}
	for _, r := range rows {
		if len(r) != 1 || r[0].I%2 != 0 {
			t.Fatalf("bad row %v", r)
		}
	}
}

func TestValuesOperator(t *testing.T) {
	f := newFixture(t, 100000)
	v := &exec.Values{Rows: []catalog.Tuple{
		{catalog.IntDatum(1)}, {catalog.IntDatum(2)},
	}}
	rows := f.run(t, v)
	if len(rows) != 2 {
		t.Fatalf("values returned %d", len(rows))
	}
}

// TestTempLifecycleTrims verifies Rule 3 end to end: a spilling operator
// generates temp data at priority 1 and its deletion TRIMs the blocks out
// of the SSD cache.
func TestTempLifecycleTrims(t *testing.T) {
	f := newFixtureBP(t, 3, 2) // tiny pool: spilled pages must reach storage
	agg := &exec.HashAgg{
		Child:    scr(&exec.SeqScan{Table: f.kv}),
		GroupKey: func(key []byte, tu catalog.Tuple) []byte { return strconv.AppendInt(key, tu[0].I%97, 10) },
		NewGroup: func(tu catalog.Tuple) catalog.Tuple {
			return catalog.Tuple{catalog.IntDatum(tu[0].I % 97), catalog.IntDatum(1)}
		},
		Merge: func(acc, tu catalog.Tuple) catalog.Tuple {
			acc[1].I++
			return acc
		},
	}
	rows := f.run(t, agg)
	if len(rows) != 97 {
		t.Fatalf("agg produced %d groups, want 97", len(rows))
	}
	snap := f.inst.Sys.Stats()
	if snap.Trimmed == 0 {
		t.Fatal("no TRIMs after spilling aggregation")
	}
	// Spilled writes classified as temporary data (Rule 3).
	space := dss.DefaultPolicySpace()
	if snap.Class(space.Temporary()).WriteBlocks == 0 {
		t.Fatal("no temp-class writes reached storage")
	}
	// No temp objects leaked.
	for _, id := range f.db.Store.Objects() {
		if catalog.IsTemp(id) {
			t.Fatalf("temp object %d leaked", id)
		}
	}
}
