package tpch

import (
	"fmt"
	"math/rand"
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
// evaluation dissects). Each plan is a declaration over the builder in
// plan.go, which resolves every name before Query returns.
func (ds *Dataset) Query(n int, seed int64) (exec.Operator, error) {
	if n < 1 || n > len(queries) {
		return nil, fmt.Errorf("tpch: no query %d", n)
	}
	rng := rand.New(rand.NewSource(seed*1000 + int64(n)))
	return queries[n-1](ds.plan(fmt.Sprintf("Q%d", n)), rng), nil
}

// MustQuery is Query but panics on an invalid number.
func (ds *Dataset) MustQuery(n int, seed int64) exec.Operator {
	op, err := ds.Query(n, seed)
	if err != nil {
		panic(err)
	}
	return op
}

var queries = [...]func(*plan, *rand.Rand) exec.Operator{
	q1, q2, q3, q4, q5, q6, q7, q8, q9, q10, q11,
	q12, q13, q14, q15, q16, q17, q18, q19, q20, q21, q22,
}

// between is lo <= d < hi.
func between(d, lo, hi int64) bool { return d >= lo && d < hi }

// q1: pricing summary report. Pure sequential scan + aggregation.
func q1(q *plan, rng *rand.Rand) exec.Operator {
	cutoff := Day(1998, 12, 1) - int64(60+rng.Intn(60))
	li := q.scan("lineitem")
	sd, price, disc, tax := li.at("l_shipdate"), li.at("l_extendedprice"), li.at("l_discount"), li.at("l_tax")
	charge := calc("charge", catalog.Float64, func(t, _ catalog.Tuple) catalog.Datum {
		return catalog.FloatDatum(t[price].F * (1 - t[disc].F) * (1 + t[tax].F))
	})
	return li.where(func(t catalog.Tuple) bool { return t[sd].I <= cutoff }).
		group(by("l_returnflag", "l_linestatus"), "l_returnflag", "l_linestatus",
			sum("l_quantity"), sum("l_extendedprice"), sum(revenue), sum(charge), count("count_order")).
		sort(asc("l_returnflag"), asc("l_linestatus")).op
}

// q2: minimum cost supplier. Random probes into partsupp and supplier.
func q2(q *plan, rng *rand.Rand) exec.Operator {
	size := int64(1 + rng.Intn(50))
	suffix := typeSyl3[rng.Intn(len(typeSyl3))]
	region := int64(rng.Intn(5))
	part := q.scan("part")
	psz, pty := part.at("p_size"), part.at("p_type")
	part = part.where(func(t catalog.Tuple) bool { return t[psz].I == size && strings.HasSuffix(t[pty].S, suffix) })
	// part ⋈ partsupp ⋈ supplier, both random.
	ps := nestLoop(part, q.index("idx_partsupp_partkey"), "p_partkey").all()
	pss := nestLoop(ps, q.index("idx_supplier_suppkey"), "ps_suppkey").all()
	// Region restriction via nation hash.
	nation := q.scan("nation")
	nr := nation.at("n_regionkey")
	nation = nation.where(func(t catalog.Tuple) bool { return t[nr].I == region })
	// Min supply cost per part, with its "best supplier".
	return hashJoin(nation, pss, eq{"n_nationkey", "s_nationkey"}).all().
		group(by("p_partkey"), "p_partkey", least("ps_supplycost", "s_acctbal", "s_name")).
		top(100, desc("s_acctbal")).op
}

// q3: shipping priority. Hash joins + random lineitem probes.
func q3(q *plan, rng *rand.Rand) exec.Operator {
	segment := segments[rng.Intn(len(segments))]
	date := Day(1995, 3, 1) + int64(rng.Intn(31))
	cust, ords, line := q.scan("customer"), q.scan("orders"), q.index("idx_lineitem_orderkey")
	seg, od, sd := cust.at("c_mktsegment"), ords.at("o_orderdate"), line.at("l_shipdate")
	co := hashJoin(cust.where(func(t catalog.Tuple) bool { return t[seg].S == segment }).keep("c_custkey"),
		ords.where(func(t catalog.Tuple) bool { return t[od].I < date }),
		eq{"c_custkey", "o_custkey"}).all()
	return nestLoop(co, line.where(func(t catalog.Tuple) bool { return t[sd].I > date }), "o_orderkey").
		out("o_orderkey", "o_orderdate", revenue).
		group(by("o_orderkey"), "o_orderkey", "o_orderdate", sum("revenue")).
		top(10, desc("revenue")).op
}

// q4: order priority checking. Semi join via random lineitem probes.
func q4(q *plan, rng *rand.Rand) exec.Operator {
	start := Day(1993, 1, 1) + int64(rng.Intn(20))*91
	ords, line := q.scan("orders"), q.index("idx_lineitem_orderkey")
	od, cd, rd := ords.at("o_orderdate"), line.at("l_commitdate"), line.at("l_receiptdate")
	return nestLoop(ords.where(func(t catalog.Tuple) bool { return between(t[od].I, start, start+91) }),
		line.where(func(t catalog.Tuple) bool { return t[cd].I < t[rd].I }), "o_orderkey").semi().
		group(by("o_orderpriority"), "o_orderpriority", count("order_count")).
		sort(asc("o_orderpriority")).op
}

// q5: local supplier volume. Hash-join pipeline over sequential scans —
// one of the paper's sequential-dominated queries (Figure 5).
func q5(q *plan, rng *rand.Rand) exec.Operator {
	region := int64(rng.Intn(5))
	y := 1993 + rng.Intn(5)
	start, end := Day(y, 1, 1), Day(y+1, 1, 1)
	nation, ords := q.scan("nation"), q.scan("orders")
	nr, od := nation.at("n_regionkey"), ords.at("o_orderdate")
	nc := hashJoin(nation.where(func(t catalog.Tuple) bool { return t[nr].I == region }).keep("n_nationkey", "n_name"),
		q.scan("customer").keep("c_custkey", "c_nationkey"),
		eq{"n_nationkey", "c_nationkey"}).all().keep("n_nationkey", "n_name", "c_custkey")
	nco := hashJoin(nc, ords.where(func(t catalog.Tuple) bool { return between(t[od].I, start, end) }).keep("o_orderkey", "o_custkey"),
		eq{"c_custkey", "o_custkey"}).all()
	ncol := hashJoin(nco, q.scan("lineitem"), eq{"o_orderkey", "l_orderkey"}).all()
	// ⋈ supplier on suppkey, requiring s_nationkey = customer's nationkey.
	supp := q.scan("supplier").keep("s_suppkey", "s_nationkey")
	sn, nk := supp.at("s_nationkey"), ncol.at("n_nationkey")
	return hashJoin(supp, ncol, eq{"s_suppkey", "l_suppkey"}).
		match(func(b, p catalog.Tuple) bool { return b[sn].I == p[nk].I }).
		out("n_name", revenue).
		group(by("n_name"), "n_name", sum("revenue")).
		sort(desc("revenue")).op
}

// q6: forecasting revenue change. Pure sequential scan, scalar aggregate.
func q6(q *plan, rng *rand.Rand) exec.Operator {
	y := 1993 + rng.Intn(5)
	start, end := Day(y, 1, 1), Day(y+1, 1, 1)
	d := 0.02 + float64(rng.Intn(8))/100
	li := q.scan("lineitem")
	sd, disc, qty, price := li.at("l_shipdate"), li.at("l_discount"), li.at("l_quantity"), li.at("l_extendedprice")
	return li.where(func(t catalog.Tuple) bool {
		return between(t[sd].I, start, end) && t[disc].F >= d-0.011 && t[disc].F <= d+0.011 && t[qty].F < 24
	}).group(by(), sum(calc("revenue", catalog.Float64, func(t, _ catalog.Tuple) catalog.Datum {
		return catalog.FloatDatum(t[price].F * t[disc].F)
	}))).op
}

// q7: volume shipping. Sequential lineitem drive with random probes into
// orders and customer.
func q7(q *plan, rng *rand.Rand) exec.Operator {
	n1 := int64(6 + rng.Intn(2)) // FRANCE or GERMANY
	n2 := 13 - n1                // the other one
	start, end := Day(1995, 1, 1), Day(1996, 12, 31)
	supp, line, cust := q.scan("supplier"), q.scan("lineitem"), q.index("idx_customer_custkey")
	snk, sd, cnk := supp.at("s_nationkey"), line.at("l_shipdate"), cust.at("c_nationkey")
	sl := hashJoin(supp.where(func(t catalog.Tuple) bool { return t[snk].I == n1 || t[snk].I == n2 }).keep("s_suppkey", "s_nationkey"),
		line.where(func(t catalog.Tuple) bool { return t[sd].I >= start && t[sd].I <= end }),
		eq{"s_suppkey", "l_suppkey"}).all()
	slo := nestLoop(sl, q.index("idx_orders_orderkey"), "l_orderkey").
		out("s_nationkey", year("l_shipdate"), revenue, "o_custkey")
	sn := slo.at("s_nationkey")
	return nestLoop(slo, cust, "o_custkey").
		match(func(o, i catalog.Tuple) bool {
			return (o[sn].I == n1 && i[cnk].I == n2) || (o[sn].I == n2 && i[cnk].I == n1)
		}).
		out("s_nationkey", "c_nationkey", "year", "revenue").
		group(by("s_nationkey", "c_nationkey", "year"), "s_nationkey", "c_nationkey", "year", sum("revenue")).
		sort(asc("s_nationkey"), asc("c_nationkey"), asc("year")).op
}

// q8: national market share. Part-driven random probes into lineitem and
// orders.
func q8(q *plan, rng *rand.Rand) exec.Operator {
	ptype := typeSyl1[rng.Intn(len(typeSyl1))] + " " + typeSyl2[rng.Intn(len(typeSyl2))] + " " + typeSyl3[rng.Intn(len(typeSyl3))]
	const brazil = 2
	start, end := Day(1995, 1, 1), Day(1996, 12, 31)
	part, ords := q.scan("part"), q.index("idx_orders_orderkey")
	pt, od := part.at("p_type"), ords.at("o_orderdate")
	pl := nestLoop(part.where(func(t catalog.Tuple) bool { return t[pt].S == ptype }).keep("p_partkey"),
		q.index("idx_lineitem_partkey"), "p_partkey").out("l_orderkey", "l_suppkey", revenue)
	plo := nestLoop(pl, ords.where(func(t catalog.Tuple) bool { return t[od].I >= start && t[od].I <= end }), "l_orderkey").
		out("l_suppkey", "revenue", year("o_orderdate"))
	all := hashJoin(q.scan("supplier").keep("s_suppkey", "s_nationkey"), plo, eq{"s_suppkey", "l_suppkey"}).all()
	sn, rev := all.at("s_nationkey"), all.at("revenue")
	g := all.group(by("year"), "year", sum(calc("nation_revenue", catalog.Float64, func(t, _ catalog.Tuple) catalog.Datum {
		if t[sn].I == brazil {
			return t[rev]
		}
		return catalog.FloatDatum(0)
	})), sum("revenue"))
	nv, v := g.at("nation_revenue"), g.at("revenue")
	return g.finalize("year", calc("mkt_share", catalog.Float64, func(acc, _ catalog.Tuple) catalog.Datum {
		share := 0.0
		if acc[v].F > 0 {
			share = acc[nv].F / acc[v].F
		}
		return catalog.FloatDatum(share)
	})).sort(asc("year")).op
}

// q9: product type profit — the plan of Figure 7: hash joins over part,
// partsupp and nation; nested-loop index scans into supplier and orders.
// The supplier probe sits one level below the orders probe, so their
// random requests receive priorities 2 and 3 (Table 5).
func q9(q *plan, rng *rand.Rand) exec.Operator {
	word := nameWords[rng.Intn(len(nameWords))]
	part := q.scan("part")
	pn := part.at("p_name")
	// HJ1: part ⋈ lineitem (both sequential).
	pl := hashJoin(part.where(func(t catalog.Tuple) bool { return strings.Contains(t[pn].S, word) }).keep("p_partkey"),
		q.scan("lineitem"), eq{"p_partkey", "l_partkey"}).all().
		keep("l_partkey", "l_suppkey", "l_orderkey", revenue, "l_quantity")
	// HJ2: ⋈ partsupp on (partkey, suppkey), sequential build.
	ps := q.scan("partsupp")
	cost, rev, qty := ps.at("ps_supplycost"), pl.at("revenue"), pl.at("l_quantity")
	amount := calc("amount", catalog.Float64, func(b, p catalog.Tuple) catalog.Datum {
		return catalog.FloatDatum(p[rev].F - b[cost].F*p[qty].F)
	})
	pls := hashJoin(ps, pl, eq{"ps_partkey", "l_partkey"}, eq{"ps_suppkey", "l_suppkey"}).
		out("l_suppkey", "l_orderkey", amount)
	// NL: ⋈ supplier via index (random, the paper's priority-2 stream),
	// then ⋈ orders via index (random, priority 3).
	s := nestLoop(pls, q.index("idx_supplier_suppkey"), "l_suppkey").out("s_nationkey", "l_orderkey", "amount")
	so := nestLoop(s, q.index("idx_orders_orderkey"), "l_orderkey").out("s_nationkey", year("o_orderdate"), "amount")
	// Top hash join with nation.
	return hashJoin(q.scan("nation").keep("n_nationkey", "n_name"), so, eq{"n_nationkey", "s_nationkey"}).all().
		group(by("n_name", "year"), "n_name", "year", sum("amount")).
		sort(asc("n_name"), desc("year")).op
}

// q10: returned item reporting. Hash joins + random customer probes.
func q10(q *plan, rng *rand.Rand) exec.Operator {
	start := Day(1993, 10, 1) + int64(rng.Intn(8))*91
	ords, line := q.scan("orders"), q.scan("lineitem")
	od, rf := ords.at("o_orderdate"), line.at("l_returnflag")
	ol := hashJoin(ords.where(func(t catalog.Tuple) bool { return between(t[od].I, start, start+91) }).keep("o_orderkey", "o_custkey"),
		line.where(func(t catalog.Tuple) bool { return t[rf].S == "R" }),
		eq{"o_orderkey", "l_orderkey"}).all().keep("o_custkey", revenue)
	return nestLoop(ol, q.index("idx_customer_custkey"), "o_custkey").
		out("o_custkey", "c_name", "revenue").
		group(by("o_custkey"), "o_custkey", "c_name", sum("revenue")).
		top(20, desc("revenue")).op
}

// q11: important stock identification. Sequential joins + aggregation.
func q11(q *plan, _ *rand.Rand) exec.Operator {
	const germany = 7
	supp := q.scan("supplier")
	snk := supp.at("s_nationkey")
	sp := hashJoin(supp.where(func(t catalog.Tuple) bool { return t[snk].I == germany }).keep("s_suppkey"),
		q.scan("partsupp"), eq{"s_suppkey", "ps_suppkey"}).all()
	cost, avail := sp.at("ps_supplycost"), sp.at("ps_availqty")
	g := sp.group(by("ps_partkey"), "ps_partkey", sum(calc("value", catalog.Float64, func(t, _ catalog.Tuple) catalog.Datum {
		return catalog.FloatDatum(t[cost].F * float64(t[avail].I))
	})))
	v := g.at("value")
	return g.where(func(t catalog.Tuple) bool { return t[v].F > 1000 }).sort(desc("value")).op
}

// q12: shipping modes and order priority. Sequential lineitem drive with
// random orders probes.
func q12(q *plan, rng *rand.Rand) exec.Operator {
	m1 := shipmodes[rng.Intn(len(shipmodes))]
	m2 := shipmodes[rng.Intn(len(shipmodes))]
	y := 1993 + rng.Intn(5)
	start, end := Day(y, 1, 1), Day(y+1, 1, 1)
	line, ords := q.scan("lineitem"), q.index("idx_orders_orderkey")
	sm, rd, cd, sd, pr := line.at("l_shipmode"), line.at("l_receiptdate"), line.at("l_commitdate"), line.at("l_shipdate"), ords.at("o_orderpriority")
	lo := nestLoop(line.where(func(t catalog.Tuple) bool {
		return (t[sm].S == m1 || t[sm].S == m2) && t[cd].I < t[rd].I && t[sd].I < t[cd].I && between(t[rd].I, start, end)
	}), ords, "l_orderkey").out("l_shipmode", calc("high", catalog.Int64, func(_, i catalog.Tuple) catalog.Datum {
		high := int64(0)
		if i[pr].S == "1-URGENT" || i[pr].S == "2-HIGH" {
			high = 1
		}
		return catalog.IntDatum(high)
	}))
	h := lo.at("high")
	return lo.group(by("l_shipmode"), "l_shipmode", sum("high"), sum(calc("low", catalog.Int64, func(t, _ catalog.Tuple) catalog.Datum {
		return catalog.IntDatum(1 - t[h].I)
	}))).sort(asc("l_shipmode")).op
}

// q13: customer distribution. Large aggregation over orders (spills) then
// a customer join.
func q13(q *plan, _ *rand.Rand) exec.Operator {
	counts := q.scan("orders").group(by("o_custkey"), "o_custkey", count("c_count"))
	return hashJoin(counts, q.scan("customer").keep("c_custkey"), eq{"o_custkey", "c_custkey"}).all().
		group(by("c_count"), "c_count", count("custdist")).
		sort(desc("custdist"), desc("c_count")).op
}

// q14: promotion effect. Sequential lineitem drive with random part
// probes.
func q14(q *plan, rng *rand.Rand) exec.Operator {
	y := 1993 + rng.Intn(5)
	start := Day(y, 1+rng.Intn(12), 1)
	line, part := q.scan("lineitem"), q.index("idx_part_partkey")
	sd, price, disc, pt := line.at("l_shipdate"), line.at("l_extendedprice"), line.at("l_discount"), part.at("p_type")
	promo := calc("promo", catalog.Float64, func(o, i catalog.Tuple) catalog.Datum {
		v := 0.0
		if strings.HasPrefix(i[pt].S, "PROMO") {
			v = o[price].F * (1 - o[disc].F)
		}
		return catalog.FloatDatum(v)
	})
	g := nestLoop(line.where(func(t catalog.Tuple) bool { return between(t[sd].I, start, start+30) }), part, "l_partkey").
		out(promo, revenue).
		group(by(), sum("promo"), sum("revenue"))
	pv, v := g.at("promo"), g.at("revenue")
	return g.finalize(calc("promo_revenue", catalog.Float64, func(acc, _ catalog.Tuple) catalog.Datum {
		share := 0.0
		if acc[v].F > 0 {
			share = 100 * acc[pv].F / acc[v].F
		}
		return catalog.FloatDatum(share)
	})).op
}

// q15: top supplier. Sequential aggregation + small join.
func q15(q *plan, rng *rand.Rand) exec.Operator {
	start := Day(1993, 1, 1) + int64(rng.Intn(20))*91
	line := q.scan("lineitem")
	sd := line.at("l_shipdate")
	rev := line.where(func(t catalog.Tuple) bool { return between(t[sd].I, start, start+91) }).
		group(by("l_suppkey"), "l_suppkey", sum(revenue))
	return hashJoin(rev, q.scan("supplier").keep("s_suppkey", "s_name"), eq{"l_suppkey", "s_suppkey"}).all().
		top(1, desc("revenue")).op
}

// q16: parts/supplier relationship. Sequential joins + aggregation.
func q16(q *plan, rng *rand.Rand) exec.Operator {
	brand := brands[rng.Intn(len(brands))]
	part := q.scan("part")
	pb, pt, psz := part.at("p_brand"), part.at("p_type"), part.at("p_size")
	part = part.where(func(t catalog.Tuple) bool {
		return t[pb].S != brand && !strings.HasPrefix(t[pt].S, "MEDIUM") && t[psz].I%7 < 4
	})
	return hashJoin(part.keep("p_partkey", "p_brand", "p_type", "p_size"), q.scan("partsupp"), eq{"p_partkey", "ps_partkey"}).all().
		group(by("p_brand", "p_type", "p_size"), "p_brand", "p_type", "p_size", changes("supplier_cnt", "ps_suppkey")).
		sort(desc("supplier_cnt"), asc("p_brand")).op
}

// q17: small-quantity-order revenue. Part-driven random lineitem probes.
func q17(q *plan, rng *rand.Rand) exec.Operator {
	brand := brands[rng.Intn(len(brands))]
	container := containers[rng.Intn(len(containers))]
	part := q.scan("part")
	pb, pc := part.at("p_brand"), part.at("p_container")
	pl := nestLoop(part.where(func(t catalog.Tuple) bool { return t[pb].S == brand && t[pc].S == container }).keep("p_partkey"),
		q.index("idx_lineitem_partkey"), "p_partkey").out("p_partkey", "l_quantity", "l_extendedprice")
	qty, price := pl.at("l_quantity"), pl.at("l_extendedprice")
	g := pl.group(by("p_partkey"), "p_partkey", sum(calc("small", catalog.Float64, func(t, _ catalog.Tuple) catalog.Datum {
		if t[qty].F < 5 {
			return t[price]
		}
		return catalog.FloatDatum(0)
	})))
	small := g.at("small")
	return g.group(by(), sum(calc("avg_yearly", catalog.Float64, func(t, _ catalog.Tuple) catalog.Datum {
		return catalog.FloatDatum(t[small].F / 7)
	}))).op
}

// q18: large volume customer — the plan of Figure 10. The big hash
// aggregate over lineitem spills to temporary files (Rule 3 traffic), and
// every other input is scanned sequentially, so the query is the paper's
// temp-data showcase (Table 7).
func q18(q *plan, rng *rand.Rand) exec.Operator {
	threshold := 180.0 + float64(rng.Intn(40))
	// Hash aggregate over all of lineitem: sum(l_quantity) by orderkey.
	sums := q.scan("lineitem").group(by("l_orderkey"), "l_orderkey", sum("l_quantity"))
	qty := sums.at("l_quantity")
	// ⋈ orders, then ⋈ customer (both sequential probes).
	big := hashJoin(sums.where(func(t catalog.Tuple) bool { return t[qty].F > threshold }), q.scan("orders"),
		eq{"l_orderkey", "o_orderkey"}).all().
		keep("l_orderkey", "l_quantity", "o_custkey", "o_orderdate", "o_totalprice")
	return hashJoin(big, q.scan("customer").keep("c_custkey", "c_name"), eq{"o_custkey", "c_custkey"}).all().
		group(by("l_orderkey"), "c_name", "o_custkey", "l_orderkey", "o_orderdate", "o_totalprice", "l_quantity").
		top(100, desc("o_totalprice"), asc("o_orderdate")).op
}

// q19: discounted revenue. Sequential hash join of part and lineitem.
func q19(q *plan, rng *rand.Rand) exec.Operator {
	b1 := brands[rng.Intn(len(brands))]
	b2 := brands[rng.Intn(len(brands))]
	b3 := brands[rng.Intn(len(brands))]
	part, line := q.scan("part").keep("p_partkey", "p_brand", "p_container"), q.scan("lineitem")
	br, ct, sm, qty := part.at("p_brand"), part.at("p_container"), line.at("l_shipmode"), line.at("l_quantity")
	return hashJoin(part, line.where(func(t catalog.Tuple) bool { return t[sm].S == "AIR" || t[sm].S == "REG AIR" }),
		eq{"p_partkey", "l_partkey"}).
		match(func(b, p catalog.Tuple) bool {
			switch b[br].S {
			case b1:
				return p[qty].F >= 1 && p[qty].F <= 11 && strings.HasPrefix(b[ct].S, "SM")
			case b2:
				return p[qty].F >= 10 && p[qty].F <= 20 && strings.HasPrefix(b[ct].S, "MED")
			case b3:
				return p[qty].F >= 20 && p[qty].F <= 30 && strings.HasPrefix(b[ct].S, "LG")
			}
			return false
		}).
		out(revenue).
		group(by(), sum("revenue")).op
}

// q20: potential part promotion. Part-driven random probes into partsupp
// and lineitem.
func q20(q *plan, rng *rand.Rand) exec.Operator {
	word := nameWords[rng.Intn(len(nameWords))]
	y := 1993 + rng.Intn(5)
	start, end := Day(y, 1, 1), Day(y+1, 1, 1)
	part, line := q.scan("part"), q.index("idx_lineitem_partkey")
	pn, sd, lsk := part.at("p_name"), line.at("l_shipdate"), line.at("l_suppkey")
	// ⋈ partsupp via index (random).
	pps := nestLoop(part.where(func(t catalog.Tuple) bool { return strings.HasPrefix(t[pn].S, word) }).keep("p_partkey"),
		q.index("idx_partsupp_partkey"), "p_partkey").all()
	pss := pps.at("ps_suppkey")
	// Existence check on shipped lineitems via index (random).
	shipped := nestLoop(pps, line.where(func(t catalog.Tuple) bool { return between(t[sd].I, start, end) }), "p_partkey").
		match(func(o, i catalog.Tuple) bool { return i[lsk].I == o[pss].I }).semi()
	return hashJoin(q.scan("supplier").keep("s_suppkey", "s_name", "s_nationkey"), shipped, eq{"s_suppkey", "ps_suppkey"}).all().
		group(by("s_name"), "s_name").
		sort(asc("s_name")).op
}

// q21: suppliers who kept orders waiting — the plan of Figure 8: a
// sequential scan of lineitem hash-joined with supplier, then nested-loop
// index scans into orders (priority 2) and lineitem (priority 3).
func q21(q *plan, rng *rand.Rand) exec.Operator {
	nationKey := int64(rng.Intn(25))
	supp, l1, ords := q.scan("supplier"), q.scan("lineitem"), q.index("idx_orders_orderkey")
	snk, st := supp.at("s_nationkey"), ords.at("o_orderstatus")
	rd, cd, lsk := l1.at("l_receiptdate"), l1.at("l_commitdate"), l1.at("l_suppkey")
	late := func(t catalog.Tuple) bool { return t[rd].I > t[cd].I }
	sl := hashJoin(supp.where(func(t catalog.Tuple) bool { return t[snk].I == nationKey }).keep("s_suppkey", "s_name"),
		l1.where(late), eq{"s_suppkey", "l_suppkey"}).all().
		keep("s_suppkey", "s_name", "l_orderkey")
	// ⋈ orders via index (random, priority 2), keeping status 'F'.
	slo := nestLoop(sl, ords.where(func(t catalog.Tuple) bool { return t[st].S == "F" }), "l_orderkey").
		out("s_suppkey", "s_name", "l_orderkey")
	ssk := slo.at("s_suppkey")
	other := func(o, i catalog.Tuple) bool { return i[lsk].I != o[ssk].I }
	// exists: another supplier shipped the same order (random lineitem,
	// priority 3); not exists: no other supplier was late on that order.
	multi := nestLoop(slo, q.index("idx_lineitem_orderkey"), "l_orderkey").match(other).semi()
	return nestLoop(multi, q.index("idx_lineitem_orderkey").where(late), "l_orderkey").match(other).anti().
		group(by("s_name"), "s_name", count("numwait")).
		top(100, desc("numwait"), asc("s_name")).op
}

// q22: global sales opportunity. Anti join against a large orders build
// (spills) plus sequential customer scan.
func q22(q *plan, _ *rand.Rand) exec.Operator {
	cust := q.scan("customer")
	phone, bal := cust.at("c_phone"), cust.at("c_acctbal")
	cust = cust.where(func(t catalog.Tuple) bool {
		if t[bal].F <= 0 {
			return false
		}
		switch t[phone].S[:2] {
		case "13", "31", "23", "29", "30", "18", "17":
			return true
		}
		return false
	})
	code := calc("cntrycode", catalog.String, func(t, _ catalog.Tuple) catalog.Datum { return catalog.StringDatum(t[phone].S[:2]) })
	return hashJoin(q.scan("orders").keep("o_custkey"), cust, eq{"o_custkey", "c_custkey"}).anti().
		group(by(code), code, count("numcust"), sum("c_acctbal")).
		sort(asc("cntrycode")).op
}
