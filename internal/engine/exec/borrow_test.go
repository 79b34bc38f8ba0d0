package exec_test

import (
	"fmt"
	"testing"

	"hstoragedb/internal/engine/btree"
	"hstoragedb/internal/engine/catalog"
	"hstoragedb/internal/engine/exec"
)

// kvRow is what the fixture loaded at key k.
func kvRow(k int64) catalog.Tuple {
	return catalog.Tuple{catalog.IntDatum(k), catalog.StringDatum(fmt.Sprintf("v%d", k)), catalog.IntDatum(k % 7)}
}

// TestKeptRowsAreOwned is the ownership contract of the executor: a row
// crossing Operator.Next is borrowed, and every place that keeps one
// (Run's result, a hash join's build table in memory and reloaded from a
// partition, Sort in memory and merging runs, TopN, HashAgg's
// accumulators) holds a copy of its own, as does the caller of
// heap.File.Fetch. With a one-frame pool every row read evicts the page
// the previous row came from, and each plan drains its whole input
// before the kept rows come out; afterwards every page is rewritten
// through Update, evicted and read again. None of that may show in a
// kept row.
func TestKeptRowsAreOwned(t *testing.T) {
	for _, workMem := range []int{10000, 37} {
		f := newFixtureBP(t, workMem, 1)
		ix := f.db.Cat.MustIndex("kv_k")
		byKeyDesc := func(a, b catalog.Tuple) bool { return a[0].I > b[0].I }

		held := map[string][]catalog.Tuple{}
		held["Run(SeqScan)"] = f.run(t, &exec.SeqScan{Table: f.kv, Pred: func(tu catalog.Tuple) bool { return tu[0].I%3 != 1 }})
		held["Run(IndexScan)"] = f.run(t, &exec.IndexScan{Index: ix, Table: f.kv, Lo: 100, Hi: 499,
			Pred: func(tu catalog.Tuple) bool { return tu[2].I != 0 }})
		held["Run(IndexProbe)"] = f.run(t, &exec.NestLoop{
			Outer:    &exec.SeqScan{Table: f.ref},
			Probe:    &exec.IndexProbe{Index: ix, Table: f.kv},
			OuterKey: func(tu catalog.Tuple) int64 { return tu[0].I * 7 },
			Combine:  func(dst, o, i catalog.Tuple) catalog.Tuple { return append(dst, i...) },
		})
		// The build rows come out while the probe side is being scanned.
		held["HashJoin build"] = f.run(t, &exec.HashJoin{
			Build:    &exec.Hash{Child: &exec.SeqScan{Table: f.kv, Pred: func(tu catalog.Tuple) bool { return tu[0].I%3 == 0 }}},
			Probe:    &exec.SeqScan{Table: f.kv},
			BuildKey: func(tu catalog.Tuple) int64 { return tu[0].I },
			ProbeKey: func(tu catalog.Tuple) int64 { return tu[0].I },
			Combine:  func(dst, b, p catalog.Tuple) catalog.Tuple { return append(dst, b...) },
		})
		held["Sort"] = f.run(t, &exec.Sort{Child: &exec.SeqScan{Table: f.kv}, Less: byKeyDesc})
		held["TopN"] = f.run(t, &exec.TopN{Child: &exec.SeqScan{Table: f.kv}, N: 150, Less: byKeyDesc})
		// One group per row: the accumulator is the row.
		held["HashAgg"] = f.run(t, &exec.HashAgg{
			Child:    &exec.SeqScan{Table: f.kv, Pred: func(tu catalog.Tuple) bool { return tu[0].I < 300 }},
			GroupKey: func(key []byte, tu catalog.Tuple) []byte { return append(key, tu[1].S...) },
			NewGroup: func(tu catalog.Tuple) catalog.Tuple { return tu.Clone() },
			Merge:    func(acc, tu catalog.Tuple) catalog.Tuple { return acc },
		})

		sess := f.inst.NewSession()
		ctx := sess.Ctx()
		tree := btree.Open(ix.ID, f.inst.Pool)
		for k := int64(0); k < 1000; k += 7 {
			r, err := tree.Lookup(ctx.Clk, k, 0)
			if err != nil || len(r) != 1 {
				t.Fatalf("lookup %d: %v %v", k, r, err)
			}
			tu, err := f.kv.File.Fetch(ctx.Clk, ctx.Pool, r[0], 0)
			if err != nil || tu == nil {
				t.Fatalf("fetch %v: %v", r[0], err)
			}
			held["Fetch"] = append(held["Fetch"], tu)
		}

		// Rewrite every row in place (same encoded size, so every page
		// keeps fitting), then sweep the table so each rewritten page is
		// evicted, written back and read again.
		it, err := tree.Seek(ctx.Clk, 0, 999, 0)
		if err != nil {
			t.Fatal(err)
		}
		for {
			e, ok, err := it.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			nu := catalog.Tuple{catalog.IntDatum(-e.Key), catalog.StringDatum(fmt.Sprintf("w%d", e.Key)), catalog.IntDatum(99)}
			if err := f.kv.File.Update(ctx.Clk, ctx.Pool, e.RID, nu, 0); err != nil {
				t.Fatal(err)
			}
		}
		if wb := f.inst.Pool.Stats().WriteBack; wb == 0 {
			t.Fatal("no page was written back: the pool is not one frame")
		}
		for _, row := range f.run(t, &exec.SeqScan{Table: f.kv}) {
			if row[2].I != 99 || row[1].S[0] != 'w' {
				t.Fatalf("row %v not rewritten", row)
			}
		}

		for name, rows := range held {
			if len(rows) < 100 {
				t.Fatalf("workmem %d, %s: only %d rows", workMem, name, len(rows))
			}
			seen := map[int64]bool{}
			for _, got := range rows {
				want := kvRow(got[0].I)
				if seen[got[0].I] || len(got) != len(want) || got[1] != want[1] || got[2] != want[2] {
					t.Fatalf("workmem %d, %s: held tuple %v changed, want %v", workMem, name, got, want)
				}
				seen[got[0].I] = true
			}
		}
	}
}

// TestRejectedRowsDoNotAllocate: a scan whose predicate rejects every
// row decodes into its scratch tuple only. The allowance covers Open.
func TestRejectedRowsDoNotAllocate(t *testing.T) {
	f := newFixture(t, 10000)
	sess := f.inst.NewSession()
	ctx := sess.Ctx()
	scan := func() {
		s := &exec.SeqScan{Table: f.kv, Pred: func(tu catalog.Tuple) bool { return tu[1].S == "no such value" }}
		if err := s.Open(ctx); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := s.Next(ctx); ok || err != nil {
			t.Fatalf("scan returned a row: %v %v", ok, err)
		}
	}
	scan() // fill the pool
	if allocs := testing.AllocsPerRun(5, scan); allocs > 4 {
		t.Fatalf("scan of 1000 rejected rows allocated %.0f times", allocs)
	}
}
