package tpch

import (
	"fmt"
	"strings"
	"testing"

	"hstoragedb/internal/engine"
	"hstoragedb/internal/engine/catalog"
	"hstoragedb/internal/engine/exec"
)

// catalogOnly is a dataset with the TPC-H tables and indexes declared and
// no rows: enough to build every plan.
func catalogOnly(t testing.TB) *Dataset {
	db := engine.NewDatabase()
	for _, name := range TableNames() {
		if _, err := db.CreateTable(name, Schemas()[name]); err != nil {
			t.Fatal(err)
		}
	}
	for _, ix := range Indexes() {
		if _, err := db.Cat.AddIndex(ix.Name, ix.Table, Schemas()[ix.Table].MustCol(ix.Column)); err != nil {
			t.Fatal(err)
		}
	}
	return &Dataset{DB: db}
}

// TestPlanBuilder pins what the builder decides at plan time: that a name
// which does not resolve, or resolves twice, panics naming the query; the
// layouts of joins, semi and anti joins and projections; and the group
// key bytes, which must stay those the hand-written plans produced
// (decimal integers, raw strings, '|' between parts, "all" for none).
func TestPlanBuilder(t *testing.T) {
	ds := catalogOnly(t)
	typed := func(q *plan) rel { // i, s: one integer and one string column
		return rel{p: q, op: &exec.Values{}, cols: []catalog.Column{{Name: "i", Type: catalog.Int64}, {Name: "s", Type: catalog.String}}}
	}
	row := catalog.Tuple{catalog.IntDatum(-42), catalog.StringDatum("")}
	for _, tc := range []struct {
		name  string
		build func(q *plan) rel
		want  string // the layout, or the group key of row, or a substring of the panic
	}{
		{"unknown table", func(q *plan) rel { return q.scan("lineitems") }, `panic: tpch: Qt: no table "lineitems"`},
		{"unknown index", func(q *plan) rel { return q.index("idx_lineitem_shipdate") }, `panic: tpch: Qt: no index "idx_lineitem_shipdate"`},
		{"unknown column", func(q *plan) rel { return q.scan("orders").keep("o_orderkey", "l_orderkey") },
			`panic: tpch: Qt: no column "l_orderkey" in [o_orderkey o_custkey`},
		{"unknown join column", func(q *plan) rel {
			return hashJoin(q.scan("nation"), q.scan("supplier"), eq{"n_nationkey", "c_nationkey"}).all()
		}, `panic: tpch: Qt: no column "c_nationkey"`},
		{"a name on both join inputs", func(q *plan) rel {
			return hashJoin(q.scan("nation"), q.scan("nation").keep("n_nationkey"), eq{"n_nationkey", "n_nationkey"}).all()
		}, `panic: tpch: Qt: column "n_nationkey" twice`},
		{"a name on both nested-loop inputs", func(q *plan) rel {
			return nestLoop(q.scan("lineitem").keep("l_orderkey"), q.index("idx_lineitem_orderkey"), "l_orderkey").out("l_suppkey")
		}, `panic: tpch: Qt: column "l_orderkey" twice`},
		{"hash join: build then probe", func(q *plan) rel {
			return hashJoin(q.scan("nation").keep("n_nationkey", "n_name"), q.scan("supplier").keep("s_suppkey", "s_nationkey"),
				eq{"n_nationkey", "s_nationkey"}).all()
		}, "[n_nationkey n_name s_suppkey s_nationkey]"},
		{"nested loop: outer then inner", func(q *plan) rel {
			return nestLoop(q.scan("part").keep("p_partkey"), q.index("idx_partsupp_partkey"), "p_partkey").all()
		}, "[p_partkey ps_partkey ps_suppkey ps_availqty ps_supplycost]"},
		{"out reads both sides", func(q *plan) rel {
			return nestLoop(q.scan("lineitem"), q.index("idx_orders_orderkey"), "l_orderkey").
				out("o_custkey", revenue, year("l_shipdate"), "l_orderkey")
		}, "[o_custkey revenue year l_orderkey]"},
		{"semi join keeps the outer", func(q *plan) rel {
			return nestLoop(q.scan("orders").keep("o_orderkey", "o_orderpriority"), q.index("idx_lineitem_orderkey"), "o_orderkey").semi()
		}, "[o_orderkey o_orderpriority]"},
		{"nested-loop anti join keeps the outer", func(q *plan) rel {
			return nestLoop(q.scan("supplier").keep("s_suppkey", "s_name", "s_nationkey"), q.index("idx_lineitem_partkey"), "s_suppkey").anti()
		}, "[s_suppkey s_name s_nationkey]"},
		{"hash anti join keeps the probe", func(q *plan) rel {
			return hashJoin(q.scan("orders").keep("o_custkey"), q.scan("customer").keep("c_custkey", "c_phone"), eq{"o_custkey", "c_custkey"}).anti()
		}, "[c_custkey c_phone]"},
		{"keep", func(q *plan) rel {
			return q.scan("customer").keep("c_phone", year("c_custkey"), "c_custkey")
		},
			"[c_phone year c_custkey]"},
		{"group layout", func(q *plan) rel {
			return q.scan("lineitem").group(by("l_suppkey"), sum(revenue), "l_suppkey", least("l_quantity", "l_orderkey"), count("n"))
		}, "[revenue l_suppkey l_quantity l_orderkey n]"},
		{"key: negative int", func(q *plan) rel { return typed(q).group(by("i"), "i") }, "key -42"},
		{"key: empty string", func(q *plan) rel { return typed(q).group(by("s"), "s") }, "key "},
		{"key: parts", func(q *plan) rel { return typed(q).group(by("s", "i", "s"), "i") }, "key |-42|"},
		{"key: scalar", func(q *plan) rel { return typed(q).group(by(), count("n")) }, "key all"},
		{"key: float", func(q *plan) rel { return q.scan("lineitem").group(by("l_tax"), count("n")) },
			`panic: tpch: Qt: cannot group by float column "l_tax"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := func() (got string) {
				defer func() {
					if r := recover(); r != nil {
						got = fmt.Sprint("panic: ", r)
					}
				}()
				r := tc.build(ds.plan("Qt"))
				if strings.HasPrefix(tc.want, "key ") {
					return "key " + string(r.op.(*exec.HashAgg).GroupKey(nil, row))
				}
				return names(r.cols)
			}()
			if got != tc.want && !(strings.HasPrefix(tc.want, "panic: ") && strings.HasPrefix(got, tc.want)) {
				t.Errorf("got %s, want %s", got, tc.want)
			}
		})
	}
}

// TestPlanColumnSets pins the column sets the builder hands its scans and
// probes: what is resolved, every column of a hash join's build, of a
// sort's input and of the query's output, and nothing a projection drops.
func TestPlanColumnSets(t *testing.T) {
	ds := catalogOnly(t)
	for _, tc := range []struct {
		name  string
		build func(q *plan) rel
		want  string // each leaf's table and the columns it decodes, in plan order
	}{
		{"predicate and aggregate", func(q *plan) rel {
			li := q.scan("lineitem")
			sd := li.at("l_shipdate")
			return li.where(func(t catalog.Tuple) bool { return t[sd].I > 0 }).group(by(), sum("l_quantity"))
		}, "lineitem[l_quantity l_shipdate]"},
		{"the output is whole", func(q *plan) rel { return q.scan("region") }, "region[r_regionkey r_name]"},
		{"a sort's input is whole", func(q *plan) rel {
			return q.scan("nation").sort(asc("n_name")).keep("n_name")
		}, "nation[n_nationkey n_name n_regionkey]"},
		{"a top's input is whole", func(q *plan) rel {
			return q.scan("nation").top(3, asc("n_name")).keep("n_name")
		}, "nation[n_nationkey n_name n_regionkey]"},
		{"a hash build is whole, a probe reads its key and outputs", func(q *plan) rel {
			return hashJoin(q.scan("region"), q.scan("nation"), eq{"r_regionkey", "n_regionkey"}).out("n_name").group(by(), count("n"))
		}, "region[r_regionkey r_name] nation[n_name n_regionkey]"},
		{"keep reads what it keeps", func(q *plan) rel {
			return hashJoin(q.scan("orders").keep("o_custkey"), q.scan("customer"), eq{"o_custkey", "c_custkey"}).anti().
				group(by(), sum("c_acctbal"))
		}, "orders[o_custkey] customer[c_custkey c_acctbal]"},
		{"a probe reads its predicate and outputs", func(q *plan) rel {
			ps := q.index("idx_partsupp_partkey")
			aq := ps.at("ps_availqty")
			return nestLoop(q.scan("part").keep("p_partkey"), ps.where(func(t catalog.Tuple) bool { return t[aq].I > 0 }), "p_partkey").
				out("ps_supplycost").group(by(), sum("ps_supplycost"))
		}, "part[p_partkey] partsupp[ps_availqty ps_supplycost]"},
		{"a semi join passes its outer rows on", func(q *plan) rel {
			return nestLoop(q.scan("orders"), q.index("idx_lineitem_orderkey"), "o_orderkey").semi().top(1, asc("o_orderdate"))
		}, "orders[o_orderkey o_custkey o_orderstatus o_totalprice o_orderdate o_orderpriority o_shippriority] lineitem[]"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var leaves []string
			var walk func(op exec.Operator)
			walk = func(op exec.Operator) {
				var cols []bool
				var table *catalog.TableInfo
				switch o := op.(type) {
				case *exec.SeqScan:
					cols, table = o.Cols, o.Table.Info
				case *exec.IndexProbe:
					cols, table = o.Cols, o.Table.Info
				}
				if table != nil {
					var read []catalog.Column
					for i, c := range table.Schema.Cols {
						if cols[i] {
							read = append(read, c)
						}
					}
					leaves = append(leaves, table.Name+names(read))
				}
				for _, c := range op.Children() {
					walk(c)
				}
			}
			walk(tc.build(ds.plan("Qt")).whole().op)
			if got := strings.Join(leaves, " "); got != tc.want {
				t.Errorf("got %s, want %s", got, tc.want)
			}
		})
	}
}

// BenchmarkPlan builds the 22 plans at seed 0: the host cost of planning
// one power sequence.
func BenchmarkPlan(b *testing.B) {
	ds := catalogOnly(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for n := 1; n <= 22; n++ {
			op, err := ds.Query(n, 0)
			if err != nil {
				b.Fatal(err)
			}
			planSink = op
		}
	}
}

var planSink exec.Operator
