package exec_test

import (
	"reflect"
	"strconv"
	"strings"
	"testing"

	"hstoragedb/internal/dss"
	"hstoragedb/internal/engine/catalog"
	"hstoragedb/internal/engine/exec"
)

// narrowRun is what a plan produced and cost: its rows, its simulated
// elapsed time and the storage statistics of its fixture.
type narrowRun struct {
	rows    []catalog.Tuple
	elapsed int64
	storage string
}

// wideTable adds wide(k int64, pad string, grp int64) to f: 1000 rows,
// k = 0..999, grp = k % 7, and a 200-byte pad, so that a row spilled with
// pad poisoned is a fraction of a full one and fills fewer temp pages.
func wideTable(t *testing.T, f *fixture) *exec.TableHandle {
	t.Helper()
	info, err := f.db.CreateTable("wide", catalog.NewSchema(
		catalog.Column{Name: "k", Type: catalog.Int64},
		catalog.Column{Name: "pad", Type: catalog.String},
		catalog.Column{Name: "grp", Type: catalog.Int64},
	))
	if err != nil {
		t.Fatal(err)
	}
	l, err := f.inst.NewLoader("wide")
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 1000; i++ {
		pad := catalog.StringDatum(strings.Repeat(string(rune('a'+i%26)), 200))
		if _, err := l.Add(catalog.Tuple{catalog.IntDatum(i), pad, catalog.IntDatum(i % 7)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return exec.NewTableHandle(info)
}

// TestNarrowScansSpillFullWidth runs a spilling HashAgg and a spilling
// HashJoin over scans that decode one column of wide, and the same plans
// with every column decoded. The operators widen their input before the
// first row that can reach a temp file, so the rows, the temp traffic and
// the simulated time must all be the same.
func TestNarrowScansSpillFullWidth(t *testing.T) {
	onlyK, onlyGrp := []bool{true, false, false}, []bool{false, false, true}
	agg := func(f *fixture, wide *exec.TableHandle, cols []bool) exec.Operator {
		return &exec.HashAgg{
			Child:    &exec.Filter{Child: &exec.SeqScan{Table: wide, Cols: cols}, Pred: func(tu catalog.Tuple) bool { return tu[2].I != 3 }},
			GroupKey: func(key []byte, tu catalog.Tuple) []byte { return strconv.AppendInt(key, tu[2].I, 10) },
			NewGroup: func(dst, tu catalog.Tuple) catalog.Tuple { return append(dst, tu[2], catalog.IntDatum(1)) },
			Merge: func(acc, tu catalog.Tuple) catalog.Tuple {
				acc[1].I++
				return acc
			},
		}
	}
	join := func(f *fixture, wide *exec.TableHandle, cols []bool) exec.Operator {
		return &exec.HashJoin{
			Build:    &exec.Hash{Child: &exec.SeqScan{Table: f.ref}},
			Probe:    &exec.SeqScan{Table: wide, Cols: cols},
			BuildKey: func(tu catalog.Tuple) int64 { return tu[0].I },
			ProbeKey: func(tu catalog.Tuple) int64 { return tu[0].I % 100 },
			Combine: func(dst, b, p catalog.Tuple) catalog.Tuple {
				return append(dst, b[0], b[1], p[0])
			},
		}
	}
	for _, tc := range []struct {
		name    string
		workMem int
		cols    []bool
		plan    func(*fixture, *exec.TableHandle, []bool) exec.Operator
	}{
		{"HashAgg", 2, onlyGrp, agg},
		{"HashJoin", 10, onlyK, join},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var runs [2]narrowRun
			for i, cols := range [][]bool{nil, tc.cols} {
				f := newFixtureBP(t, tc.workMem, 2) // spilled pages reach storage
				op := tc.plan(f, wideTable(t, f), cols)
				res, err := f.inst.NewSession().Execute(op)
				if err != nil {
					t.Fatal(err)
				}
				stats := f.inst.Sys.Stats()
				if stats.Class(dss.DefaultPolicySpace().Temporary()).WriteBlocks == 0 {
					t.Fatal("the plan wrote no temp blocks: nothing spilled")
				}
				runs[i] = narrowRun{res.Rows, int64(res.Elapsed), stats.String()}
			}
			full, narrow := runs[0], runs[1]
			if !reflect.DeepEqual(narrow.rows, full.rows) {
				t.Fatalf("narrow scans returned %d rows, full ones %d, or different rows", len(narrow.rows), len(full.rows))
			}
			if narrow.elapsed != full.elapsed {
				t.Errorf("simulated time %d ns with narrow scans, %d with full ones", narrow.elapsed, full.elapsed)
			}
			if narrow.storage != full.storage {
				t.Errorf("storage traffic differs:\nnarrow:\n%s\nfull:\n%s", narrow.storage, full.storage)
			}
		})
	}
}

// TestUndeclaredReadSeesPoison reads columns outside a scan's set: the
// sequential scan's predicate and the index probe's rows hold the poison
// datum there, and the declared column its value.
func TestUndeclaredReadSeesPoison(t *testing.T) {
	f := newFixture(t, 10000)
	onlyK := []bool{true, false, false}
	check := func(where string, tu catalog.Tuple) {
		t.Helper()
		if catalog.Poisoned(tu[0]) || !catalog.Poisoned(tu[1]) || !catalog.Poisoned(tu[2]) {
			t.Fatalf("%s: row %v: want k decoded and v, grp poisoned", where, tu)
		}
	}
	rows := f.run(t, &exec.SeqScan{Table: f.kv, Cols: onlyK, Pred: func(tu catalog.Tuple) bool {
		check("SeqScan.Pred", tu)
		return tu[0].I < 10
	}})
	if len(rows) != 10 {
		t.Fatalf("scan kept %d rows, want 10", len(rows))
	}
	rows = f.run(t, &exec.NestLoop{
		Outer:    &exec.SeqScan{Table: f.ref},
		Probe:    &exec.IndexProbe{Index: f.db.Cat.MustIndex("kv_k"), Table: f.kv, Cols: onlyK},
		OuterKey: func(tu catalog.Tuple) int64 { return tu[0].I },
		Combine:  func(dst, o, i catalog.Tuple) catalog.Tuple { return append(dst, i...) },
	})
	if len(rows) != 100 {
		t.Fatalf("probe returned %d rows, want 100", len(rows))
	}
	for _, r := range rows {
		check("IndexProbe", r)
	}
}
