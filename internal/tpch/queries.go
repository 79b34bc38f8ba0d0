package tpch

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"hstoragedb/internal/engine/catalog"
	"hstoragedb/internal/engine/exec"
)

// Query builds the plan for TPC-H query n (1..22). The seed varies the
// substitution parameters the way different query streams do in the
// power/throughput tests; seed 0 yields the validation parameters.
//
// Plans approximate the PostgreSQL shapes the paper reports; Q9, Q21 and
// Q18 mirror Figures 7, 8 and 10 (the queries whose cache behaviour the
// evaluation dissects).
func (ds *Dataset) Query(n int, seed int64) (exec.Operator, error) {
	rng := rand.New(rand.NewSource(seed*1000 + int64(n)))
	switch n {
	case 1:
		return ds.q1(rng), nil
	case 2:
		return ds.q2(rng), nil
	case 3:
		return ds.q3(rng), nil
	case 4:
		return ds.q4(rng), nil
	case 5:
		return ds.q5(rng), nil
	case 6:
		return ds.q6(rng), nil
	case 7:
		return ds.q7(rng), nil
	case 8:
		return ds.q8(rng), nil
	case 9:
		return ds.q9(rng), nil
	case 10:
		return ds.q10(rng), nil
	case 11:
		return ds.q11(rng), nil
	case 12:
		return ds.q12(rng), nil
	case 13:
		return ds.q13(rng), nil
	case 14:
		return ds.q14(rng), nil
	case 15:
		return ds.q15(rng), nil
	case 16:
		return ds.q16(rng), nil
	case 17:
		return ds.q17(rng), nil
	case 18:
		return ds.q18(rng), nil
	case 19:
		return ds.q19(rng), nil
	case 20:
		return ds.q20(rng), nil
	case 21:
		return ds.q21(rng), nil
	case 22:
		return ds.q22(rng), nil
	}
	return nil, fmt.Errorf("tpch: no query %d", n)
}

// MustQuery is Query but panics on an invalid number.
func (ds *Dataset) MustQuery(n int, seed int64) exec.Operator {
	op, err := ds.Query(n, seed)
	if err != nil {
		panic(err)
	}
	return op
}

// ---- construction helpers ----

func (ds *Dataset) handle(name string) *exec.TableHandle {
	return exec.NewTableHandle(ds.DB.Cat.MustTable(name))
}

func (ds *Dataset) colIdx(table, column string) int {
	return ds.DB.Cat.MustTable(table).Schema.MustCol(column)
}

func (ds *Dataset) seq(table string, pred func(catalog.Tuple) bool) *exec.SeqScan {
	return &exec.SeqScan{Table: ds.handle(table), Pred: pred}
}

func (ds *Dataset) probe(index, table string, pred func(catalog.Tuple) bool) *exec.IndexProbe {
	return &exec.IndexProbe{
		Index: ds.DB.Cat.MustIndex(index),
		Table: ds.handle(table),
		Pred:  pred,
	}
}

// hj builds a hash join whose build side is wrapped in the explicit
// blocking Hash operator of the paper's plan trees.
func hj(build, probeSide exec.Operator, bk, pk func(catalog.Tuple) int64) *exec.HashJoin {
	return &exec.HashJoin{
		Build:    &exec.Hash{Child: build},
		Probe:    probeSide,
		BuildKey: bk,
		ProbeKey: pk,
	}
}

func ic(i int) func(catalog.Tuple) int64 {
	return func(t catalog.Tuple) int64 { return t[i].I }
}

// keep projects the listed columns.
func keep(child exec.Operator, idx ...int) *exec.Project {
	return &exec.Project{Child: child, Fn: func(dst, t catalog.Tuple) catalog.Tuple {
		for _, j := range idx {
			dst = append(dst, t[j])
		}
		return dst
	}}
}

// Group keys are the bytes the grouping expression would print as: the
// decimal digits of an integer column, a string column as it is, parts
// joined by '|'. A scalar aggregate has the one group "all".
func intKey(i int) func([]byte, catalog.Tuple) []byte {
	return func(key []byte, t catalog.Tuple) []byte { return strconv.AppendInt(key, t[i].I, 10) }
}

func strKey(i int) func([]byte, catalog.Tuple) []byte {
	return func(key []byte, t catalog.Tuple) []byte { return append(key, t[i].S...) }
}

func oneGroup(key []byte, _ catalog.Tuple) []byte { return append(key, "all"...) }

func year(day int64) int64 { return 1970 + day/365 } // close enough for grouping

// ---- the 22 queries ----

// q1: pricing summary report. Pure sequential scan + aggregation.
func (ds *Dataset) q1(rng *rand.Rand) exec.Operator {
	lq := ds.colIdx("lineitem", "l_quantity")
	lp := ds.colIdx("lineitem", "l_extendedprice")
	ld := ds.colIdx("lineitem", "l_discount")
	lt := ds.colIdx("lineitem", "l_tax")
	lrf := ds.colIdx("lineitem", "l_returnflag")
	lls := ds.colIdx("lineitem", "l_linestatus")
	lsd := ds.colIdx("lineitem", "l_shipdate")
	cutoff := Day(1998, 12, 1) - int64(60+rng.Intn(60))

	scan := ds.seq("lineitem", func(t catalog.Tuple) bool { return t[lsd].I <= cutoff })
	agg := &exec.HashAgg{
		Child: scan,
		GroupKey: func(key []byte, t catalog.Tuple) []byte {
			return append(append(append(key, t[lrf].S...), '|'), t[lls].S...)
		},
		NewGroup: func(t catalog.Tuple) catalog.Tuple {
			return catalog.Tuple{
				t[lrf], t[lls],
				catalog.FloatDatum(t[lq].F),
				catalog.FloatDatum(t[lp].F),
				catalog.FloatDatum(t[lp].F * (1 - t[ld].F)),
				catalog.FloatDatum(t[lp].F * (1 - t[ld].F) * (1 + t[lt].F)),
				catalog.IntDatum(1),
			}
		},
		Merge: func(acc, t catalog.Tuple) catalog.Tuple {
			acc[2].F += t[lq].F
			acc[3].F += t[lp].F
			acc[4].F += t[lp].F * (1 - t[ld].F)
			acc[5].F += t[lp].F * (1 - t[ld].F) * (1 + t[lt].F)
			acc[6].I++
			return acc
		},
	}
	return &exec.Sort{Child: agg, Less: func(a, b catalog.Tuple) bool {
		if a[0].S != b[0].S {
			return a[0].S < b[0].S
		}
		return a[1].S < b[1].S
	}}
}

// q2: minimum cost supplier. Random probes into partsupp and supplier.
func (ds *Dataset) q2(rng *rand.Rand) exec.Operator {
	psz := ds.colIdx("part", "p_size")
	pty := ds.colIdx("part", "p_type")
	pk := ds.colIdx("part", "p_partkey")
	size := int64(1 + rng.Intn(50))
	suffix := typeSyl3[rng.Intn(len(typeSyl3))]
	region := int64(rng.Intn(5))

	part := ds.seq("part", func(t catalog.Tuple) bool {
		return t[psz].I == size && strings.HasSuffix(t[pty].S, suffix)
	})
	// part ⋈ partsupp (random).
	nlPS := &exec.NestLoop{
		Outer:    part,
		Probe:    ds.probe("idx_partsupp_partkey", "partsupp", nil),
		OuterKey: ic(pk),
	}
	// ⋈ supplier (random). Combined tuple: part(8) + partsupp(4) + supplier(6).
	nlS := &exec.NestLoop{
		Outer:    nlPS,
		Probe:    ds.probe("idx_supplier_suppkey", "supplier", nil),
		OuterKey: func(t catalog.Tuple) int64 { return t[8+1].I }, // ps_suppkey
	}
	// Region restriction via nation hash.
	nk := ds.colIdx("nation", "n_nationkey")
	nr := ds.colIdx("nation", "n_regionkey")
	nation := ds.seq("nation", func(t catalog.Tuple) bool { return t[nr].I == region })
	join := hj(nation, nlS,
		ic(nk),
		func(t catalog.Tuple) int64 { return t[8+4+2].I }, // s_nationkey
	)
	// Min supply cost per part, then the "best supplier" rows.
	agg := &exec.HashAgg{
		Child:    join,
		GroupKey: intKey(3 + pk),
		NewGroup: func(t catalog.Tuple) catalog.Tuple {
			// partkey, min cost, supplier acctbal, supplier name
			return catalog.Tuple{t[3+pk], t[3+8+3], t[3+8+4+3], t[3+8+4+1]}
		},
		Merge: func(acc, t catalog.Tuple) catalog.Tuple {
			if t[3+8+3].F < acc[1].F {
				acc[1] = t[3+8+3]
				acc[2] = t[3+8+4+3]
				acc[3].S = strings.Clone(t[3+8+4+1].S) // t is borrowed: do not pin its frame
			}
			return acc
		},
	}
	return &exec.TopN{Child: agg, N: 100, Less: func(a, b catalog.Tuple) bool { return a[2].F > b[2].F }}
}

// q3: shipping priority. Hash joins + random lineitem probes.
func (ds *Dataset) q3(rng *rand.Rand) exec.Operator {
	cseg := ds.colIdx("customer", "c_mktsegment")
	ck := ds.colIdx("customer", "c_custkey")
	ok := ds.colIdx("orders", "o_orderkey")
	oc := ds.colIdx("orders", "o_custkey")
	od := ds.colIdx("orders", "o_orderdate")
	segment := segments[rng.Intn(len(segments))]
	date := Day(1995, 3, 1) + int64(rng.Intn(31))

	cust := ds.seq("customer", func(t catalog.Tuple) bool { return t[cseg].S == segment })
	ords := ds.seq("orders", func(t catalog.Tuple) bool { return t[od].I < date })
	co := hj(keep(cust, ck), ords, ic(0), ic(oc)) // [custkey | orders...]
	lsd := ds.colIdx("lineitem", "l_shipdate")
	lp := ds.colIdx("lineitem", "l_extendedprice")
	ld := ds.colIdx("lineitem", "l_discount")
	nl := &exec.NestLoop{
		Outer:    co,
		Probe:    ds.probe("idx_lineitem_orderkey", "lineitem", func(t catalog.Tuple) bool { return t[lsd].I > date }),
		OuterKey: func(t catalog.Tuple) int64 { return t[1+ok].I },
		Combine: func(dst, o, i catalog.Tuple) catalog.Tuple {
			return append(dst, o[1+ok], o[1+od], catalog.FloatDatum(i[lp].F*(1-i[ld].F)))
		},
	}
	agg := &exec.HashAgg{
		Child:    nl,
		GroupKey: intKey(0),
		NewGroup: func(t catalog.Tuple) catalog.Tuple { return t.Clone() },
		Merge: func(acc, t catalog.Tuple) catalog.Tuple {
			acc[2].F += t[2].F
			return acc
		},
	}
	return &exec.TopN{Child: agg, N: 10, Less: func(a, b catalog.Tuple) bool { return a[2].F > b[2].F }}
}

// q4: order priority checking. Semi join via random lineitem probes.
func (ds *Dataset) q4(rng *rand.Rand) exec.Operator {
	od := ds.colIdx("orders", "o_orderdate")
	ok := ds.colIdx("orders", "o_orderkey")
	op := ds.colIdx("orders", "o_orderpriority")
	lcd := ds.colIdx("lineitem", "l_commitdate")
	lrd := ds.colIdx("lineitem", "l_receiptdate")
	start := Day(1993, 1, 1) + int64(rng.Intn(20))*91
	end := start + 91

	ords := ds.seq("orders", func(t catalog.Tuple) bool { return t[od].I >= start && t[od].I < end })
	semi := &exec.NestLoop{
		Outer:    ords,
		Probe:    ds.probe("idx_lineitem_orderkey", "lineitem", func(t catalog.Tuple) bool { return t[lcd].I < t[lrd].I }),
		OuterKey: ic(ok),
		Semi:     true,
		Combine:  func(dst, o, i catalog.Tuple) catalog.Tuple { return append(dst, o...) },
	}
	agg := &exec.HashAgg{
		Child:    semi,
		GroupKey: strKey(op),
		NewGroup: func(t catalog.Tuple) catalog.Tuple { return catalog.Tuple{t[op], catalog.IntDatum(1)} },
		Merge: func(acc, t catalog.Tuple) catalog.Tuple {
			acc[1].I++
			return acc
		},
	}
	return &exec.Sort{Child: agg, Less: func(a, b catalog.Tuple) bool { return a[0].S < b[0].S }}
}

// q5: local supplier volume. Hash-join pipeline over sequential scans —
// one of the paper's sequential-dominated queries (Figure 5).
func (ds *Dataset) q5(rng *rand.Rand) exec.Operator {
	region := int64(rng.Intn(5))
	y := 1993 + int64(rng.Intn(5))
	start, end := Day(int(y), 1, 1), Day(int(y)+1, 1, 1)

	nk := ds.colIdx("nation", "n_nationkey")
	nn := ds.colIdx("nation", "n_name")
	nr := ds.colIdx("nation", "n_regionkey")
	nation := keep(ds.seq("nation", func(t catalog.Tuple) bool { return t[nr].I == region }), nk, nn)

	ck := ds.colIdx("customer", "c_custkey")
	cn := ds.colIdx("customer", "c_nationkey")
	// nation ⋈ customer → [nationkey, nationname, custkey]
	nc := hj(nation, keep(ds.seq("customer", nil), ck, cn),
		ic(0),
		func(t catalog.Tuple) int64 { return t[1].I },
	)
	ncp := &exec.Project{Child: nc, Fn: func(dst, t catalog.Tuple) catalog.Tuple {
		return append(dst, t[0], t[1], t[2])
	}}

	od := ds.colIdx("orders", "o_orderdate")
	oc := ds.colIdx("orders", "o_custkey")
	okc := ds.colIdx("orders", "o_orderkey")
	ords := keep(ds.seq("orders", func(t catalog.Tuple) bool { return t[od].I >= start && t[od].I < end }), okc, oc)
	// (nation⋈customer) ⋈ orders → [nationkey, nationname, custkey, orderkey, custkey]
	nco := hj(ncp, ords,
		func(t catalog.Tuple) int64 { return t[2].I },
		func(t catalog.Tuple) int64 { return t[1].I },
	)

	lk := ds.colIdx("lineitem", "l_orderkey")
	ls := ds.colIdx("lineitem", "l_suppkey")
	lp := ds.colIdx("lineitem", "l_extendedprice")
	ld := ds.colIdx("lineitem", "l_discount")
	// ⋈ lineitem on orderkey → carries suppkey + revenue
	ncol := hj(nco, ds.seq("lineitem", nil),
		func(t catalog.Tuple) int64 { return t[3].I },
		ic(lk),
	)

	sk := ds.colIdx("supplier", "s_suppkey")
	sn := ds.colIdx("supplier", "s_nationkey")
	supp := keep(ds.seq("supplier", nil), sk, sn)
	// ⋈ supplier on suppkey, requiring s_nationkey = customer's nationkey.
	final := &exec.HashJoin{
		Build:    &exec.Hash{Child: supp},
		Probe:    ncol,
		BuildKey: ic(0),
		ProbeKey: func(t catalog.Tuple) int64 { return t[5+ls].I },
		Pred:     func(b, p catalog.Tuple) bool { return b[1].I == p[0].I },
		Combine: func(dst, b, p catalog.Tuple) catalog.Tuple {
			return append(dst, p[1], catalog.FloatDatum(p[5+lp].F*(1-p[5+ld].F)))
		},
	}
	agg := &exec.HashAgg{
		Child:    final,
		GroupKey: strKey(0),
		NewGroup: func(t catalog.Tuple) catalog.Tuple { return t.Clone() },
		Merge: func(acc, t catalog.Tuple) catalog.Tuple {
			acc[1].F += t[1].F
			return acc
		},
	}
	return &exec.Sort{Child: agg, Less: func(a, b catalog.Tuple) bool { return a[1].F > b[1].F }}
}

// q6: forecasting revenue change. Pure sequential scan, scalar aggregate.
func (ds *Dataset) q6(rng *rand.Rand) exec.Operator {
	lsd := ds.colIdx("lineitem", "l_shipdate")
	ld := ds.colIdx("lineitem", "l_discount")
	lq := ds.colIdx("lineitem", "l_quantity")
	lp := ds.colIdx("lineitem", "l_extendedprice")
	y := 1993 + int64(rng.Intn(5))
	start, end := Day(int(y), 1, 1), Day(int(y)+1, 1, 1)
	disc := 0.02 + float64(rng.Intn(8))/100

	scan := ds.seq("lineitem", func(t catalog.Tuple) bool {
		return t[lsd].I >= start && t[lsd].I < end &&
			t[ld].F >= disc-0.011 && t[ld].F <= disc+0.011 && t[lq].F < 24
	})
	return &exec.HashAgg{
		Child:    scan,
		GroupKey: oneGroup,
		NewGroup: func(t catalog.Tuple) catalog.Tuple {
			return catalog.Tuple{catalog.FloatDatum(t[lp].F * t[ld].F)}
		},
		Merge: func(acc, t catalog.Tuple) catalog.Tuple {
			acc[0].F += t[lp].F * t[ld].F
			return acc
		},
	}
}

// q7: volume shipping. Sequential lineitem drive with random probes into
// orders and customer.
func (ds *Dataset) q7(rng *rand.Rand) exec.Operator {
	n1 := int64(6 + rng.Intn(2)) // FRANCE or GERMANY
	n2 := int64(13 - n1 + 0)     // the other one
	lsd := ds.colIdx("lineitem", "l_shipdate")
	lsk := ds.colIdx("lineitem", "l_suppkey")
	lok := ds.colIdx("lineitem", "l_orderkey")
	lp := ds.colIdx("lineitem", "l_extendedprice")
	ld := ds.colIdx("lineitem", "l_discount")
	start, end := Day(1995, 1, 1), Day(1996, 12, 31)

	sk := ds.colIdx("supplier", "s_suppkey")
	snk := ds.colIdx("supplier", "s_nationkey")
	supp := keep(ds.seq("supplier", func(t catalog.Tuple) bool { return t[snk].I == n1 || t[snk].I == n2 }), sk, snk)

	line := ds.seq("lineitem", func(t catalog.Tuple) bool { return t[lsd].I >= start && t[lsd].I <= end })
	// supplier ⋈ lineitem → [s_suppkey, s_nationkey | lineitem...]
	sl := hj(supp, line, ic(0), ic(lsk))

	oc := ds.colIdx("orders", "o_custkey")
	nlO := &exec.NestLoop{
		Outer:    sl,
		Probe:    ds.probe("idx_orders_orderkey", "orders", nil),
		OuterKey: func(t catalog.Tuple) int64 { return t[2+lok].I },
		Combine: func(dst, o, i catalog.Tuple) catalog.Tuple {
			// [suppnation, shipyear, revenue, custkey]
			return append(dst,
				o[1],
				catalog.IntDatum(year(o[2+lsd].I)),
				catalog.FloatDatum(o[2+lp].F*(1-o[2+ld].F)),
				i[oc],
			)
		},
	}
	cnk := ds.colIdx("customer", "c_nationkey")
	nlC := &exec.NestLoop{
		Outer:    nlO,
		Probe:    ds.probe("idx_customer_custkey", "customer", nil),
		OuterKey: ic(3),
		Pred: func(o, i catalog.Tuple) bool {
			return (o[0].I == n1 && i[cnk].I == n2) || (o[0].I == n2 && i[cnk].I == n1)
		},
		Combine: func(dst, o, i catalog.Tuple) catalog.Tuple {
			return append(dst, o[0], i[cnk], o[1], o[2])
		},
	}
	agg := &exec.HashAgg{
		Child: nlC,
		GroupKey: func(key []byte, t catalog.Tuple) []byte {
			key = append(strconv.AppendInt(key, t[0].I, 10), '|')
			key = append(strconv.AppendInt(key, t[1].I, 10), '|')
			return strconv.AppendInt(key, t[2].I, 10)
		},
		NewGroup: func(t catalog.Tuple) catalog.Tuple { return t.Clone() },
		Merge: func(acc, t catalog.Tuple) catalog.Tuple {
			acc[3].F += t[3].F
			return acc
		},
	}
	return &exec.Sort{Child: agg, Less: func(a, b catalog.Tuple) bool {
		if a[0].I != b[0].I {
			return a[0].I < b[0].I
		}
		if a[1].I != b[1].I {
			return a[1].I < b[1].I
		}
		return a[2].I < b[2].I
	}}
}

// q8: national market share. Part-driven random probes into lineitem and
// orders.
func (ds *Dataset) q8(rng *rand.Rand) exec.Operator {
	ptype := typeSyl1[rng.Intn(len(typeSyl1))] + " " + typeSyl2[rng.Intn(len(typeSyl2))] + " " + typeSyl3[rng.Intn(len(typeSyl3))]
	targetNation := int64(2) // BRAZIL
	pk := ds.colIdx("part", "p_partkey")
	pt := ds.colIdx("part", "p_type")
	part := keep(ds.seq("part", func(t catalog.Tuple) bool { return t[pt].S == ptype }), pk)

	lpk := ds.colIdx("lineitem", "l_partkey")
	_ = lpk
	lok := ds.colIdx("lineitem", "l_orderkey")
	lsk := ds.colIdx("lineitem", "l_suppkey")
	lp := ds.colIdx("lineitem", "l_extendedprice")
	ld := ds.colIdx("lineitem", "l_discount")
	nlL := &exec.NestLoop{
		Outer:    part,
		Probe:    ds.probe("idx_lineitem_partkey", "lineitem", nil),
		OuterKey: ic(0),
		Combine: func(dst, o, i catalog.Tuple) catalog.Tuple {
			return append(dst, i[lok], i[lsk], catalog.FloatDatum(i[lp].F*(1-i[ld].F)))
		},
	}
	od := ds.colIdx("orders", "o_orderdate")
	start, end := Day(1995, 1, 1), Day(1996, 12, 31)
	nlO := &exec.NestLoop{
		Outer:    nlL,
		Probe:    ds.probe("idx_orders_orderkey", "orders", func(t catalog.Tuple) bool { return t[od].I >= start && t[od].I <= end }),
		OuterKey: ic(0),
		Combine: func(dst, o, i catalog.Tuple) catalog.Tuple {
			return append(dst, o[1], o[2], catalog.IntDatum(year(i[od].I)))
		},
	}
	sk := ds.colIdx("supplier", "s_suppkey")
	snk := ds.colIdx("supplier", "s_nationkey")
	join := hj(keep(ds.seq("supplier", nil), sk, snk), nlO,
		ic(0),
		ic(0),
	)
	agg := &exec.HashAgg{
		Child:    join,
		GroupKey: intKey(2 + 2),
		NewGroup: func(t catalog.Tuple) catalog.Tuple {
			v := t[2+1].F
			nv := 0.0
			if t[1].I == targetNation {
				nv = v
			}
			return catalog.Tuple{t[2+2], catalog.FloatDatum(nv), catalog.FloatDatum(v)}
		},
		Merge: func(acc, t catalog.Tuple) catalog.Tuple {
			v := t[2+1].F
			if t[1].I == targetNation {
				acc[1].F += v
			}
			acc[2].F += v
			return acc
		},
		Finalize: func(acc catalog.Tuple) catalog.Tuple {
			share := 0.0
			if acc[2].F > 0 {
				share = acc[1].F / acc[2].F
			}
			return catalog.Tuple{acc[0], catalog.FloatDatum(share)}
		},
	}
	return &exec.Sort{Child: agg, Less: func(a, b catalog.Tuple) bool { return a[0].I < b[0].I }}
}

// q9: product type profit — the plan of Figure 7: hash joins over part,
// partsupp and nation; nested-loop index scans into supplier and orders.
// The supplier probe sits one level below the orders probe, so their
// random requests receive priorities 2 and 3 (Table 5).
func (ds *Dataset) q9(rng *rand.Rand) exec.Operator {
	word := nameWords[rng.Intn(len(nameWords))]
	pk := ds.colIdx("part", "p_partkey")
	pn := ds.colIdx("part", "p_name")
	part := keep(ds.seq("part", func(t catalog.Tuple) bool { return strings.Contains(t[pn].S, word) }), pk)

	lpk := ds.colIdx("lineitem", "l_partkey")
	lsk := ds.colIdx("lineitem", "l_suppkey")
	lok := ds.colIdx("lineitem", "l_orderkey")
	lq := ds.colIdx("lineitem", "l_quantity")
	lp := ds.colIdx("lineitem", "l_extendedprice")
	ld := ds.colIdx("lineitem", "l_discount")

	// HJ1: part ⋈ lineitem (both sequential).
	hj1 := hj(part, ds.seq("lineitem", nil), ic(0), ic(lpk))
	// → [p_partkey | lineitem...]
	slim := &exec.Project{Child: hj1, Fn: func(dst, t catalog.Tuple) catalog.Tuple {
		return append(dst,
			t[1+lpk], t[1+lsk], t[1+lok],
			catalog.FloatDatum(t[1+lp].F*(1-t[1+ld].F)), t[1+lq],
		)
	}}

	// HJ2: ⋈ partsupp on (partkey, suppkey), sequential build.
	psk := ds.colIdx("partsupp", "ps_partkey")
	pss := ds.colIdx("partsupp", "ps_suppkey")
	psc := ds.colIdx("partsupp", "ps_supplycost")
	hj2 := &exec.HashJoin{
		Build:    &exec.Hash{Child: ds.seq("partsupp", nil)},
		Probe:    slim,
		BuildKey: func(t catalog.Tuple) int64 { return t[psk].I<<32 | t[pss].I },
		ProbeKey: func(t catalog.Tuple) int64 { return t[0].I<<32 | t[1].I },
		Combine: func(dst, b, p catalog.Tuple) catalog.Tuple {
			// [suppkey, orderkey, profit-ish]
			return append(dst, p[1], p[2], catalog.FloatDatum(p[3].F-b[psc].F*p[4].F))
		},
	}

	// NL: ⋈ supplier via index (random, the paper's priority-2 stream).
	snk := ds.colIdx("supplier", "s_nationkey")
	nlS := &exec.NestLoop{
		Outer:    hj2,
		Probe:    ds.probe("idx_supplier_suppkey", "supplier", nil),
		OuterKey: ic(0),
		Combine: func(dst, o, i catalog.Tuple) catalog.Tuple {
			return append(dst, i[snk], o[1], o[2])
		},
	}
	// NL: ⋈ orders via index (random, priority 3).
	od := ds.colIdx("orders", "o_orderdate")
	nlO := &exec.NestLoop{
		Outer:    nlS,
		Probe:    ds.probe("idx_orders_orderkey", "orders", nil),
		OuterKey: ic(1),
		Combine: func(dst, o, i catalog.Tuple) catalog.Tuple {
			return append(dst, o[0], catalog.IntDatum(year(i[od].I)), o[2])
		},
	}
	// Top hash join with nation.
	nk := ds.colIdx("nation", "n_nationkey")
	nn := ds.colIdx("nation", "n_name")
	top := hj(keep(ds.seq("nation", nil), nk, nn), nlO, ic(0), ic(0))
	agg := &exec.HashAgg{
		Child: top,
		GroupKey: func(key []byte, t catalog.Tuple) []byte {
			return strconv.AppendInt(append(append(key, t[1].S...), '|'), t[2+1].I, 10)
		},
		NewGroup: func(t catalog.Tuple) catalog.Tuple {
			return catalog.Tuple{t[1], t[2+1], t[2+2]}
		},
		Merge: func(acc, t catalog.Tuple) catalog.Tuple {
			acc[2].F += t[2+2].F
			return acc
		},
	}
	return &exec.Sort{Child: agg, Less: func(a, b catalog.Tuple) bool {
		if a[0].S != b[0].S {
			return a[0].S < b[0].S
		}
		return a[1].I > b[1].I
	}}
}

// q10: returned item reporting. Hash joins + random customer probes.
func (ds *Dataset) q10(rng *rand.Rand) exec.Operator {
	od := ds.colIdx("orders", "o_orderdate")
	ok := ds.colIdx("orders", "o_orderkey")
	oc := ds.colIdx("orders", "o_custkey")
	start := Day(1993, 10, 1) + int64(rng.Intn(8))*91
	end := start + 91

	ords := keep(ds.seq("orders", func(t catalog.Tuple) bool { return t[od].I >= start && t[od].I < end }), ok, oc)
	lrf := ds.colIdx("lineitem", "l_returnflag")
	lok := ds.colIdx("lineitem", "l_orderkey")
	lp := ds.colIdx("lineitem", "l_extendedprice")
	ld := ds.colIdx("lineitem", "l_discount")
	line := ds.seq("lineitem", func(t catalog.Tuple) bool { return t[lrf].S == "R" })
	ol := hj(ords, line, ic(0), ic(lok))
	// [orderkey, custkey | lineitem...]
	rev := &exec.Project{Child: ol, Fn: func(dst, t catalog.Tuple) catalog.Tuple {
		return append(dst, t[1], catalog.FloatDatum(t[2+lp].F*(1-t[2+ld].F)))
	}}
	cn := ds.colIdx("customer", "c_name")
	nlC := &exec.NestLoop{
		Outer:    rev,
		Probe:    ds.probe("idx_customer_custkey", "customer", nil),
		OuterKey: ic(0),
		Combine: func(dst, o, i catalog.Tuple) catalog.Tuple {
			return append(dst, o[0], i[cn], o[1])
		},
	}
	agg := &exec.HashAgg{
		Child:    nlC,
		GroupKey: intKey(0),
		NewGroup: func(t catalog.Tuple) catalog.Tuple { return t.Clone() },
		Merge: func(acc, t catalog.Tuple) catalog.Tuple {
			acc[2].F += t[2].F
			return acc
		},
	}
	return &exec.TopN{Child: agg, N: 20, Less: func(a, b catalog.Tuple) bool { return a[2].F > b[2].F }}
}

// q11: important stock identification. Sequential joins + aggregation.
func (ds *Dataset) q11(rng *rand.Rand) exec.Operator {
	nationKey := int64(7) // GERMANY
	_ = rng
	snk := ds.colIdx("supplier", "s_nationkey")
	sk := ds.colIdx("supplier", "s_suppkey")
	supp := keep(ds.seq("supplier", func(t catalog.Tuple) bool { return t[snk].I == nationKey }), sk)

	psk := ds.colIdx("partsupp", "ps_partkey")
	pss := ds.colIdx("partsupp", "ps_suppkey")
	psq := ds.colIdx("partsupp", "ps_availqty")
	psc := ds.colIdx("partsupp", "ps_supplycost")
	join := hj(supp, ds.seq("partsupp", nil), ic(0), ic(pss))
	agg := &exec.HashAgg{
		Child:    join,
		GroupKey: intKey(1 + psk),
		NewGroup: func(t catalog.Tuple) catalog.Tuple {
			return catalog.Tuple{t[1+psk], catalog.FloatDatum(t[1+psc].F * float64(t[1+psq].I))}
		},
		Merge: func(acc, t catalog.Tuple) catalog.Tuple {
			acc[1].F += t[1+psc].F * float64(t[1+psq].I)
			return acc
		},
	}
	filter := &exec.Filter{Child: agg, Pred: func(t catalog.Tuple) bool { return t[1].F > 1000 }}
	return &exec.Sort{Child: filter, Less: func(a, b catalog.Tuple) bool { return a[1].F > b[1].F }}
}

// q12: shipping modes and order priority. Sequential lineitem drive with
// random orders probes.
func (ds *Dataset) q12(rng *rand.Rand) exec.Operator {
	m1 := shipmodes[rng.Intn(len(shipmodes))]
	m2 := shipmodes[rng.Intn(len(shipmodes))]
	y := 1993 + int64(rng.Intn(5))
	start, end := Day(int(y), 1, 1), Day(int(y)+1, 1, 1)
	lsm := ds.colIdx("lineitem", "l_shipmode")
	lrd := ds.colIdx("lineitem", "l_receiptdate")
	lcd := ds.colIdx("lineitem", "l_commitdate")
	lsd := ds.colIdx("lineitem", "l_shipdate")
	lok := ds.colIdx("lineitem", "l_orderkey")

	line := ds.seq("lineitem", func(t catalog.Tuple) bool {
		return (t[lsm].S == m1 || t[lsm].S == m2) &&
			t[lcd].I < t[lrd].I && t[lsd].I < t[lcd].I &&
			t[lrd].I >= start && t[lrd].I < end
	})
	op := ds.colIdx("orders", "o_orderpriority")
	nl := &exec.NestLoop{
		Outer:    line,
		Probe:    ds.probe("idx_orders_orderkey", "orders", nil),
		OuterKey: ic(lok),
		Combine: func(dst, o, i catalog.Tuple) catalog.Tuple {
			high := int64(0)
			if i[op].S == "1-URGENT" || i[op].S == "2-HIGH" {
				high = 1
			}
			return append(dst, o[lsm], catalog.IntDatum(high))
		},
	}
	agg := &exec.HashAgg{
		Child:    nl,
		GroupKey: strKey(0),
		NewGroup: func(t catalog.Tuple) catalog.Tuple {
			return catalog.Tuple{t[0], t[1], catalog.IntDatum(1 - t[1].I)}
		},
		Merge: func(acc, t catalog.Tuple) catalog.Tuple {
			acc[1].I += t[1].I
			acc[2].I += 1 - t[1].I
			return acc
		},
	}
	return &exec.Sort{Child: agg, Less: func(a, b catalog.Tuple) bool { return a[0].S < b[0].S }}
}

// q13: customer distribution. Large aggregation over orders (spills) then
// a customer join.
func (ds *Dataset) q13(rng *rand.Rand) exec.Operator {
	_ = rng
	oc := ds.colIdx("orders", "o_custkey")
	counts := &exec.HashAgg{
		Child:    ds.seq("orders", nil),
		GroupKey: intKey(oc),
		NewGroup: func(t catalog.Tuple) catalog.Tuple { return catalog.Tuple{t[oc], catalog.IntDatum(1)} },
		Merge: func(acc, t catalog.Tuple) catalog.Tuple {
			acc[1].I++
			return acc
		},
	}
	ck := ds.colIdx("customer", "c_custkey")
	join := hj(counts, keep(ds.seq("customer", nil), ck), ic(0), ic(0))
	dist := &exec.HashAgg{
		Child:    join,
		GroupKey: intKey(1),
		NewGroup: func(t catalog.Tuple) catalog.Tuple { return catalog.Tuple{t[1], catalog.IntDatum(1)} },
		Merge: func(acc, t catalog.Tuple) catalog.Tuple {
			acc[1].I++
			return acc
		},
	}
	return &exec.Sort{Child: dist, Less: func(a, b catalog.Tuple) bool {
		if a[1].I != b[1].I {
			return a[1].I > b[1].I
		}
		return a[0].I > b[0].I
	}}
}

// q14: promotion effect. Sequential lineitem drive with random part
// probes.
func (ds *Dataset) q14(rng *rand.Rand) exec.Operator {
	y := 1993 + int64(rng.Intn(5))
	m := 1 + rng.Intn(12)
	start := Day(int(y), m, 1)
	end := start + 30
	lsd := ds.colIdx("lineitem", "l_shipdate")
	lpk := ds.colIdx("lineitem", "l_partkey")
	lp := ds.colIdx("lineitem", "l_extendedprice")
	ld := ds.colIdx("lineitem", "l_discount")
	pt := ds.colIdx("part", "p_type")

	line := ds.seq("lineitem", func(t catalog.Tuple) bool { return t[lsd].I >= start && t[lsd].I < end })
	nl := &exec.NestLoop{
		Outer:    line,
		Probe:    ds.probe("idx_part_partkey", "part", nil),
		OuterKey: ic(lpk),
		Combine: func(dst, o, i catalog.Tuple) catalog.Tuple {
			rev := o[lp].F * (1 - o[ld].F)
			promo := 0.0
			if strings.HasPrefix(i[pt].S, "PROMO") {
				promo = rev
			}
			return append(dst, catalog.FloatDatum(promo), catalog.FloatDatum(rev))
		},
	}
	return &exec.HashAgg{
		Child:    nl,
		GroupKey: oneGroup,
		NewGroup: func(t catalog.Tuple) catalog.Tuple { return t.Clone() },
		Merge: func(acc, t catalog.Tuple) catalog.Tuple {
			acc[0].F += t[0].F
			acc[1].F += t[1].F
			return acc
		},
		Finalize: func(acc catalog.Tuple) catalog.Tuple {
			share := 0.0
			if acc[1].F > 0 {
				share = 100 * acc[0].F / acc[1].F
			}
			return catalog.Tuple{catalog.FloatDatum(share)}
		},
	}
}

// q15: top supplier. Sequential aggregation + small join.
func (ds *Dataset) q15(rng *rand.Rand) exec.Operator {
	start := Day(1993, 1, 1) + int64(rng.Intn(20))*91
	end := start + 91
	lsd := ds.colIdx("lineitem", "l_shipdate")
	lsk := ds.colIdx("lineitem", "l_suppkey")
	lp := ds.colIdx("lineitem", "l_extendedprice")
	ld := ds.colIdx("lineitem", "l_discount")

	revenue := &exec.HashAgg{
		Child:    ds.seq("lineitem", func(t catalog.Tuple) bool { return t[lsd].I >= start && t[lsd].I < end }),
		GroupKey: intKey(lsk),
		NewGroup: func(t catalog.Tuple) catalog.Tuple {
			return catalog.Tuple{t[lsk], catalog.FloatDatum(t[lp].F * (1 - t[ld].F))}
		},
		Merge: func(acc, t catalog.Tuple) catalog.Tuple {
			acc[1].F += t[lp].F * (1 - t[ld].F)
			return acc
		},
	}
	sk := ds.colIdx("supplier", "s_suppkey")
	sn := ds.colIdx("supplier", "s_name")
	join := hj(revenue, keep(ds.seq("supplier", nil), sk, sn),
		ic(0), ic(0))
	return &exec.TopN{Child: join, N: 1, Less: func(a, b catalog.Tuple) bool { return a[1].F > b[1].F }}
}

// q16: parts/supplier relationship. Sequential joins + aggregation.
func (ds *Dataset) q16(rng *rand.Rand) exec.Operator {
	brand := brands[rng.Intn(len(brands))]
	pk := ds.colIdx("part", "p_partkey")
	pb := ds.colIdx("part", "p_brand")
	pt := ds.colIdx("part", "p_type")
	psz := ds.colIdx("part", "p_size")
	part := ds.seq("part", func(t catalog.Tuple) bool {
		return t[pb].S != brand && !strings.HasPrefix(t[pt].S, "MEDIUM") && t[psz].I%7 < 4
	})
	psk := ds.colIdx("partsupp", "ps_partkey")
	pss := ds.colIdx("partsupp", "ps_suppkey")
	join := hj(keep(part, pk, pb, pt, psz), ds.seq("partsupp", nil), ic(0), ic(psk))
	agg := &exec.HashAgg{
		Child: join,
		GroupKey: func(key []byte, t catalog.Tuple) []byte {
			key = append(append(append(append(key, t[1].S...), '|'), t[2].S...), '|')
			return strconv.AppendInt(key, t[3].I, 10)
		},
		NewGroup: func(t catalog.Tuple) catalog.Tuple {
			return catalog.Tuple{t[1], t[2], t[3], catalog.IntDatum(1), t[4+pss]}
		},
		Merge: func(acc, t catalog.Tuple) catalog.Tuple {
			if t[4+pss].I != acc[4].I {
				acc[3].I++
				acc[4] = t[4+pss]
			}
			return acc
		},
	}
	return &exec.Sort{Child: agg, Less: func(a, b catalog.Tuple) bool {
		if a[3].I != b[3].I {
			return a[3].I > b[3].I
		}
		return a[0].S < b[0].S
	}}
}

// q17: small-quantity-order revenue. Part-driven random lineitem probes.
func (ds *Dataset) q17(rng *rand.Rand) exec.Operator {
	brand := brands[rng.Intn(len(brands))]
	container := containers[rng.Intn(len(containers))]
	pk := ds.colIdx("part", "p_partkey")
	pb := ds.colIdx("part", "p_brand")
	pc := ds.colIdx("part", "p_container")
	part := keep(ds.seq("part", func(t catalog.Tuple) bool {
		return t[pb].S == brand && t[pc].S == container
	}), pk)

	lq := ds.colIdx("lineitem", "l_quantity")
	lp := ds.colIdx("lineitem", "l_extendedprice")
	nl := &exec.NestLoop{
		Outer:    part,
		Probe:    ds.probe("idx_lineitem_partkey", "lineitem", nil),
		OuterKey: ic(0),
		Combine: func(dst, o, i catalog.Tuple) catalog.Tuple {
			return append(dst, o[0], i[lq], i[lp])
		},
	}
	agg := &exec.HashAgg{
		Child:    nl,
		GroupKey: intKey(0),
		NewGroup: func(t catalog.Tuple) catalog.Tuple {
			low := 0.0
			if t[1].F < 5 {
				low = t[2].F
			}
			return catalog.Tuple{t[0], catalog.FloatDatum(low)}
		},
		Merge: func(acc, t catalog.Tuple) catalog.Tuple {
			if t[1].F < 5 {
				acc[1].F += t[2].F
			}
			return acc
		},
	}
	return &exec.HashAgg{
		Child:    agg,
		GroupKey: oneGroup,
		NewGroup: func(t catalog.Tuple) catalog.Tuple {
			return catalog.Tuple{catalog.FloatDatum(t[1].F / 7)}
		},
		Merge: func(acc, t catalog.Tuple) catalog.Tuple {
			acc[0].F += t[1].F / 7
			return acc
		},
	}
}

// q18: large volume customer — the plan of Figure 10. The big hash
// aggregate over lineitem spills to temporary files (Rule 3 traffic), and
// every other input is scanned sequentially, so the query is the paper's
// temp-data showcase (Table 7).
func (ds *Dataset) q18(rng *rand.Rand) exec.Operator {
	threshold := 180.0 + float64(rng.Intn(40))
	lok := ds.colIdx("lineitem", "l_orderkey")
	lq := ds.colIdx("lineitem", "l_quantity")

	// Hash aggregate over all of lineitem: sum(l_quantity) by orderkey.
	sums := &exec.HashAgg{
		Child:    ds.seq("lineitem", nil),
		GroupKey: intKey(lok),
		NewGroup: func(t catalog.Tuple) catalog.Tuple { return catalog.Tuple{t[lok], catalog.FloatDatum(t[lq].F)} },
		Merge: func(acc, t catalog.Tuple) catalog.Tuple {
			acc[1].F += t[lq].F
			return acc
		},
	}
	big := &exec.Filter{Child: sums, Pred: func(t catalog.Tuple) bool { return t[1].F > threshold }}

	ok := ds.colIdx("orders", "o_orderkey")
	oc := ds.colIdx("orders", "o_custkey")
	od := ds.colIdx("orders", "o_orderdate")
	op := ds.colIdx("orders", "o_totalprice")
	// ⋈ orders (sequential probe).
	jo := hj(big, ds.seq("orders", nil), ic(0), ic(ok))
	// → [orderkey, qty, custkey, orderdate, totalprice]
	slim := &exec.Project{Child: jo, Fn: func(dst, t catalog.Tuple) catalog.Tuple {
		return append(dst, t[0], t[1], t[2+oc], t[2+od], t[2+op])
	}}
	ck := ds.colIdx("customer", "c_custkey")
	cn := ds.colIdx("customer", "c_name")
	// ⋈ customer (sequential probe).
	jc := hj(slim, keep(ds.seq("customer", nil), ck, cn), ic(2), ic(0))
	// → final aggregation by order.
	agg := &exec.HashAgg{
		Child:    jc,
		GroupKey: intKey(0),
		NewGroup: func(t catalog.Tuple) catalog.Tuple {
			return catalog.Tuple{t[6], t[2], t[0], t[3], t[4], t[1]}
		},
		Merge: func(acc, t catalog.Tuple) catalog.Tuple { return acc },
	}
	return &exec.TopN{Child: agg, N: 100, Less: func(a, b catalog.Tuple) bool {
		if a[4].F != b[4].F {
			return a[4].F > b[4].F
		}
		return a[3].I < b[3].I
	}}
}

// q19: discounted revenue. Sequential hash join of part and lineitem.
func (ds *Dataset) q19(rng *rand.Rand) exec.Operator {
	b1 := brands[rng.Intn(len(brands))]
	b2 := brands[rng.Intn(len(brands))]
	b3 := brands[rng.Intn(len(brands))]
	pk := ds.colIdx("part", "p_partkey")
	pb := ds.colIdx("part", "p_brand")
	pc := ds.colIdx("part", "p_container")
	part := keep(ds.seq("part", nil), pk, pb, pc)

	lpk := ds.colIdx("lineitem", "l_partkey")
	lq := ds.colIdx("lineitem", "l_quantity")
	lp := ds.colIdx("lineitem", "l_extendedprice")
	ld := ds.colIdx("lineitem", "l_discount")
	lsm := ds.colIdx("lineitem", "l_shipmode")
	line := ds.seq("lineitem", func(t catalog.Tuple) bool {
		return t[lsm].S == "AIR" || t[lsm].S == "REG AIR"
	})
	join := &exec.HashJoin{
		Build:    &exec.Hash{Child: part},
		Probe:    line,
		BuildKey: ic(0),
		ProbeKey: ic(lpk),
		Pred: func(b, p catalog.Tuple) bool {
			switch b[1].S {
			case b1:
				return p[lq].F >= 1 && p[lq].F <= 11 && strings.HasPrefix(b[2].S, "SM")
			case b2:
				return p[lq].F >= 10 && p[lq].F <= 20 && strings.HasPrefix(b[2].S, "MED")
			case b3:
				return p[lq].F >= 20 && p[lq].F <= 30 && strings.HasPrefix(b[2].S, "LG")
			}
			return false
		},
		Combine: func(dst, b, p catalog.Tuple) catalog.Tuple {
			return append(dst, catalog.FloatDatum(p[lp].F*(1-p[ld].F)))
		},
	}
	return &exec.HashAgg{
		Child:    join,
		GroupKey: oneGroup,
		NewGroup: func(t catalog.Tuple) catalog.Tuple { return t.Clone() },
		Merge: func(acc, t catalog.Tuple) catalog.Tuple {
			acc[0].F += t[0].F
			return acc
		},
	}
}

// q20: potential part promotion. Part-driven random probes into partsupp
// and lineitem.
func (ds *Dataset) q20(rng *rand.Rand) exec.Operator {
	word := nameWords[rng.Intn(len(nameWords))]
	y := 1993 + int64(rng.Intn(5))
	start, end := Day(int(y), 1, 1), Day(int(y)+1, 1, 1)
	pk := ds.colIdx("part", "p_partkey")
	pn := ds.colIdx("part", "p_name")
	part := keep(ds.seq("part", func(t catalog.Tuple) bool { return strings.HasPrefix(t[pn].S, word) }), pk)

	// ⋈ partsupp via index (random).
	nlPS := &exec.NestLoop{
		Outer:    part,
		Probe:    ds.probe("idx_partsupp_partkey", "partsupp", nil),
		OuterKey: ic(0),
	}
	lsd := ds.colIdx("lineitem", "l_shipdate")
	// Existence check on shipped lineitems via index (random).
	semi := &exec.NestLoop{
		Outer: nlPS,
		Probe: ds.probe("idx_lineitem_partkey", "lineitem", func(t catalog.Tuple) bool {
			return t[lsd].I >= start && t[lsd].I < end
		}),
		OuterKey: ic(0),
		Semi:     true,
		Pred: func(o, i catalog.Tuple) bool {
			return i[ds.colIdx("lineitem", "l_suppkey")].I == o[1+1].I
		},
		Combine: func(dst, o, i catalog.Tuple) catalog.Tuple { return append(dst, o...) },
	}
	sk := ds.colIdx("supplier", "s_suppkey")
	sn := ds.colIdx("supplier", "s_name")
	snk := ds.colIdx("supplier", "s_nationkey")
	join := hj(keep(ds.seq("supplier", nil), sk, sn, snk), semi,
		ic(0),
		func(t catalog.Tuple) int64 { return t[1+1].I })
	agg := &exec.HashAgg{
		Child:    join,
		GroupKey: strKey(1),
		NewGroup: func(t catalog.Tuple) catalog.Tuple { return catalog.Tuple{t[1]} },
		Merge:    func(acc, t catalog.Tuple) catalog.Tuple { return acc },
	}
	return &exec.Sort{Child: agg, Less: func(a, b catalog.Tuple) bool { return a[0].S < b[0].S }}
}

// q21: suppliers who kept orders waiting — the plan of Figure 8: a
// sequential scan of lineitem hash-joined with supplier, then nested-loop
// index scans into orders (priority 2) and lineitem (priority 3).
func (ds *Dataset) q21(rng *rand.Rand) exec.Operator {
	nationKey := int64(rng.Intn(25))
	sk := ds.colIdx("supplier", "s_suppkey")
	sn := ds.colIdx("supplier", "s_name")
	snk := ds.colIdx("supplier", "s_nationkey")
	supp := keep(ds.seq("supplier", func(t catalog.Tuple) bool { return t[snk].I == nationKey }), sk, sn)

	lok := ds.colIdx("lineitem", "l_orderkey")
	lsk := ds.colIdx("lineitem", "l_suppkey")
	lcd := ds.colIdx("lineitem", "l_commitdate")
	lrd := ds.colIdx("lineitem", "l_receiptdate")
	l1 := ds.seq("lineitem", func(t catalog.Tuple) bool { return t[lrd].I > t[lcd].I })
	// supplier ⋈ l1 → [s_suppkey, s_name, orderkey]
	sl := hj(supp, l1, ic(0), ic(lsk))
	slim := &exec.Project{Child: sl, Fn: func(dst, t catalog.Tuple) catalog.Tuple {
		return append(dst, t[0], t[1], t[2+lok])
	}}

	// ⋈ orders via index (random, priority 2), keeping status 'F'.
	ost := ds.colIdx("orders", "o_orderstatus")
	nlO := &exec.NestLoop{
		Outer:    slim,
		Probe:    ds.probe("idx_orders_orderkey", "orders", func(t catalog.Tuple) bool { return t[ost].S == "F" }),
		OuterKey: ic(2),
		Combine:  func(dst, o, i catalog.Tuple) catalog.Tuple { return append(dst, o...) },
	}
	// exists: another supplier shipped the same order (random lineitem,
	// priority 3).
	semi := &exec.NestLoop{
		Outer:    nlO,
		Probe:    ds.probe("idx_lineitem_orderkey", "lineitem", nil),
		OuterKey: ic(2),
		Semi:     true,
		Pred:     func(o, i catalog.Tuple) bool { return i[lsk].I != o[0].I },
		Combine:  func(dst, o, i catalog.Tuple) catalog.Tuple { return append(dst, o...) },
	}
	// not exists: no other supplier was late on that order.
	anti := &exec.NestLoop{
		Outer:    semi,
		Probe:    ds.probe("idx_lineitem_orderkey", "lineitem", func(t catalog.Tuple) bool { return t[lrd].I > t[lcd].I }),
		OuterKey: ic(2),
		Anti:     true,
		Pred:     func(o, i catalog.Tuple) bool { return i[lsk].I != o[0].I },
	}
	agg := &exec.HashAgg{
		Child:    anti,
		GroupKey: strKey(1),
		NewGroup: func(t catalog.Tuple) catalog.Tuple { return catalog.Tuple{t[1], catalog.IntDatum(1)} },
		Merge: func(acc, t catalog.Tuple) catalog.Tuple {
			acc[1].I++
			return acc
		},
	}
	return &exec.TopN{Child: agg, N: 100, Less: func(a, b catalog.Tuple) bool {
		if a[1].I != b[1].I {
			return a[1].I > b[1].I
		}
		return a[0].S < b[0].S
	}}
}

// q22: global sales opportunity. Anti join against a large orders build
// (spills) plus sequential customer scan.
func (ds *Dataset) q22(rng *rand.Rand) exec.Operator {
	_ = rng
	cph := ds.colIdx("customer", "c_phone")
	cab := ds.colIdx("customer", "c_acctbal")
	ck := ds.colIdx("customer", "c_custkey")
	cust := ds.seq("customer", func(t catalog.Tuple) bool {
		if t[cab].F <= 0 {
			return false
		}
		cc := t[cph].S[:2]
		switch cc {
		case "13", "31", "23", "29", "30", "18", "17":
			return true
		}
		return false
	})
	oc := ds.colIdx("orders", "o_custkey")
	anti := &exec.HashJoin{
		Build:    &exec.Hash{Child: keep(ds.seq("orders", nil), oc)},
		Probe:    cust,
		BuildKey: ic(0),
		ProbeKey: ic(ck),
		Anti:     true,
	}
	agg := &exec.HashAgg{
		Child:    anti,
		GroupKey: func(key []byte, t catalog.Tuple) []byte { return append(key, t[cph].S[:2]...) },
		NewGroup: func(t catalog.Tuple) catalog.Tuple {
			return catalog.Tuple{catalog.StringDatum(t[cph].S[:2]), catalog.IntDatum(1), t[cab]}
		},
		Merge: func(acc, t catalog.Tuple) catalog.Tuple {
			acc[1].I++
			acc[2].F += t[cab].F
			return acc
		},
	}
	return &exec.Sort{Child: agg, Less: func(a, b catalog.Tuple) bool { return a[0].S < b[0].S }}
}
