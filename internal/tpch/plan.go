package tpch

import (
	"cmp"
	"fmt"
	"strconv"
	"strings"

	"hstoragedb/internal/engine/catalog"
	"hstoragedb/internal/engine/exec"
)

// The 22 plans are declarations over this builder. A rel is an operator
// and the names and types of its columns in tuple order, so a column's
// position is decided here and nowhere else: a scan's columns are its
// table's schema, a join's are its build (or outer) columns then its probe
// (or inner) columns unless out lists them, a semi or anti join keeps one
// side, and keep, group and finalize list theirs. Every table, index and
// column name is resolved once, while the plan is built; a name that does
// not resolve panics naming the query. The closures the operators run read
// tuple positions only.
//
// Resolving a name also records what a scan must decode. Each column a
// rel passes on unchanged from a scan or index probe points at that
// leaf's entry of its Cols set, and every resolution marks the entry it
// reaches. So do the inputs of the operators that keep rows whole (a hash
// join's build, sort, top) and the query's output, for every column they
// carry: a row that is kept or spilled is full width. Columns a rel
// computes (keep, out, group, finalize) have no leaf entry; the columns
// they were computed from were marked when they were resolved. A closure
// that reads a position resolved on another rel reads a column its scan
// may not have decoded, and sees catalog's poison datum.

// plan builds one query.
type plan struct {
	ds *Dataset
	q  string // "Q9": named by every plan-time panic
}

func (ds *Dataset) plan(q string) *plan { return &plan{ds: ds, q: q} }

func (p *plan) fail(format string, args ...any) {
	panic(fmt.Sprintf("tpch: %s: %s", p.q, fmt.Sprintf(format, args...)))
}

// rel is a relation under construction. src[i], when src is not nil and
// the entry is not, is the Cols entry of the scan or probe that column i
// passes through unchanged.
type rel struct {
	p    *plan
	op   exec.Operator
	cols []catalog.Column
	src  []*bool
}

func (p *plan) table(name string) *catalog.TableInfo {
	info, err := p.ds.DB.Cat.Table(name)
	if err != nil {
		p.fail("no table %q", name)
	}
	return info
}

// scan is a sequential scan of table.
func (p *plan) scan(table string) rel {
	info := p.table(table)
	op := &exec.SeqScan{Table: exec.NewTableHandle(info), Cols: make([]bool, len(info.Schema.Cols))}
	return rel{p, op, info.Schema.Cols, leaf(op.Cols)}
}

// leaf points at each entry of a scan's column set.
func leaf(cols []bool) []*bool {
	src := make([]*bool, len(cols))
	for i := range cols {
		src[i] = &cols[i]
	}
	return src
}

// mark records that column i of a rel with sources src is read.
func mark(src []*bool, i int) {
	if i < len(src) && src[i] != nil {
		*src[i] = true
	}
}

// whole marks every column of r: r's rows are kept or leave the plan.
func (r rel) whole() rel {
	for i := range r.src {
		mark(r.src, i)
	}
	return r
}

// sources is r.src at r's arity, for a layout that concatenates rels.
func (r rel) sources() []*bool {
	if r.src == nil {
		return make([]*bool, len(r.cols))
	}
	return r.src
}

// index is the inner side of an index nested loop: a probe of the named
// index that yields its table's rows.
func (p *plan) index(name string) rel {
	ix, err := p.ds.DB.Cat.Index(name)
	if err != nil {
		p.fail("no index %q", name)
	}
	info := p.table(p.ds.DB.Cat.NameOf(ix.TableID))
	op := &exec.IndexProbe{Index: ix, Table: exec.NewTableHandle(info), Cols: make([]bool, len(info.Schema.Cols))}
	return rel{p, op, info.Schema.Cols, leaf(op.Cols)}
}

// at is the position of a column, for a closure that reads it.
func (r rel) at(name string) int { return r.in().at(name).i }

func (r rel) in() layout { return layout{p: r.p, left: r.cols, lsrc: r.src} }

// where filters r: the predicate of a scan or probe, a Filter above
// anything else.
func (r rel) where(pred func(catalog.Tuple) bool) rel {
	switch op := r.op.(type) {
	case *exec.SeqScan:
		op.Pred = pred
	case *exec.IndexProbe:
		op.Pred = pred
	default:
		r.op = &exec.Filter{Child: r.op, Pred: pred}
	}
	return r
}

// keep projects r onto the listed columns and values (see layout.out).
func (r rel) keep(items ...any) rel {
	cols, fn := r.in().out(items)
	return rel{r.p, &exec.Project{Child: r.op, Fn: func(dst, t catalog.Tuple) catalog.Tuple { return fn(dst, t, nil) }}, cols, nil}
}

// pos is where a column is read: a join's right-hand (probe or inner) row
// or its left-hand one, which is the only row anywhere else.
type pos struct {
	right bool
	i     int
}

func (c pos) of(a, b catalog.Tuple) catalog.Datum {
	if c.right {
		return b[c.i]
	}
	return a[c.i]
}

// layout is what a value can read: one row's columns, or a join's two,
// with their sources.
type layout struct {
	p           *plan
	left, right []catalog.Column
	lsrc, rsrc  []*bool
}

// col resolves a column and marks it read.
func (l layout) col(name string) (catalog.Column, pos) {
	for i, c := range l.left {
		if c.Name == name {
			mark(l.lsrc, i)
			return c, pos{false, i}
		}
	}
	for i, c := range l.right {
		if c.Name == name {
			mark(l.rsrc, i)
			return c, pos{true, i}
		}
	}
	l.p.fail("no column %q in %s", name, names(append(append([]catalog.Column(nil), l.left...), l.right...)))
	return catalog.Column{}, pos{}
}

func (l layout) at(name string) pos {
	_, c := l.col(name)
	return c
}

func names(cols []catalog.Column) string {
	s := make([]string, len(cols))
	for i, c := range cols {
		s[i] = c.Name
	}
	return "[" + strings.Join(s, " ") + "]"
}

// distinct rejects a layout that names a column twice.
func (p *plan) distinct(cols []catalog.Column) []catalog.Column {
	for i, c := range cols {
		for _, d := range cols[:i] {
			if c.Name == d.Name {
				p.fail("column %q twice in %s", c.Name, names(cols))
			}
		}
	}
	return cols
}

// val is a computed column. Bound to the layout it is evaluated on, it
// resolves the columns it reads and returns its own column and its
// function.
type val func(in layout) (catalog.Column, func(a, b catalog.Tuple) catalog.Datum)

// calc is a one-off value whose closure reads positions the query resolved.
func calc(name string, t catalog.ColType, fn func(a, b catalog.Tuple) catalog.Datum) val {
	return func(layout) (catalog.Column, func(a, b catalog.Tuple) catalog.Datum) {
		return catalog.Column{Name: name, Type: t}, fn
	}
}

// revenue is l_extendedprice * (1 - l_discount).
var revenue val = func(in layout) (catalog.Column, func(a, b catalog.Tuple) catalog.Datum) {
	p, d := in.at("l_extendedprice"), in.at("l_discount")
	return catalog.Column{Name: "revenue", Type: catalog.Float64}, func(a, b catalog.Tuple) catalog.Datum {
		return catalog.FloatDatum(p.of(a, b).F * (1 - d.of(a, b).F))
	}
}

// year is the year of a date column, close enough for grouping.
func year(col string) val {
	return func(in layout) (catalog.Column, func(a, b catalog.Tuple) catalog.Datum) {
		c := in.at(col)
		return catalog.Column{Name: "year", Type: catalog.Int64}, func(a, b catalog.Tuple) catalog.Datum {
			return catalog.IntDatum(1970 + c.of(a, b).I/365)
		}
	}
}

// get resolves one item, a column name or a val, to its column and the
// function that reads it.
func (l layout) get(item any) (catalog.Column, func(a, b catalog.Tuple) catalog.Datum) {
	switch it := item.(type) {
	case string:
		c, at := l.col(it)
		return c, at.of
	case val:
		return it(l)
	}
	l.p.fail("%T is neither a column name nor a value", item)
	return catalog.Column{}, nil
}

// out resolves an output list once: its columns, and the function that
// appends an output row to dst.
func (l layout) out(items []any) ([]catalog.Column, func(dst, a, b catalog.Tuple) catalog.Tuple) {
	cols := make([]catalog.Column, len(items))
	gets := make([]func(a, b catalog.Tuple) catalog.Datum, len(items))
	for i, it := range items {
		cols[i], gets[i] = l.get(it)
	}
	return l.p.distinct(cols), func(dst, a, b catalog.Tuple) catalog.Tuple {
		for _, get := range gets {
			dst = append(dst, get(a, b))
		}
		return dst
	}
}

// ---- joins ----

// join is a join under construction; all, out, semi or anti decide its
// layout.
type join struct {
	p           *plan
	hj          *exec.HashJoin
	nl          *exec.NestLoop
	left, right []catalog.Column
	lsrc, rsrc  []*bool
}

// eq is one equality of a hash join: a build column and a probe column.
type eq [2]string

// hashJoin joins build, below the blocking Hash node of the paper's plan
// trees, with probe. Two equalities pack into one key, the first high.
// The build rows are kept, so they are whole.
func hashJoin(build, probe rel, on ...eq) join {
	build.whole()
	return join{p: build.p, left: build.cols, right: probe.cols, lsrc: build.sources(), rsrc: probe.sources(), hj: &exec.HashJoin{
		Build:    &exec.Hash{Child: build.op},
		Probe:    probe.op,
		BuildKey: build.key(on, 0),
		ProbeKey: probe.key(on, 1),
	}}
}

func (r rel) key(on []eq, side int) func(catalog.Tuple) int64 {
	switch len(on) {
	case 1:
		i := r.at(on[0][side])
		return func(t catalog.Tuple) int64 { return t[i].I }
	case 2:
		i, j := r.at(on[0][side]), r.at(on[1][side])
		return func(t catalog.Tuple) int64 { return t[i].I<<32 | t[j].I }
	}
	r.p.fail("a join key has one or two columns, not %d", len(on))
	return nil
}

// nestLoop probes inner, an index, with the outer column key.
func nestLoop(outer, inner rel, key string) join {
	probe, ok := inner.op.(*exec.IndexProbe)
	if !ok {
		outer.p.fail("a nested loop's inner side is an index probe, not %T", inner.op)
	}
	i := outer.at(key)
	return join{p: outer.p, left: outer.cols, right: inner.cols, lsrc: outer.sources(), rsrc: inner.sources(), nl: &exec.NestLoop{
		Outer:    outer.op,
		Probe:    probe,
		OuterKey: func(t catalog.Tuple) int64 { return t[i].I },
	}}
}

// match filters joined pairs.
func (j join) match(pred func(a, b catalog.Tuple) bool) join {
	if j.hj != nil {
		j.hj.Pred = pred
	} else {
		j.nl.Pred = pred
	}
	return j
}

func (j join) rel(cols []catalog.Column, src []*bool, combine func(dst, a, b catalog.Tuple) catalog.Tuple) rel {
	if j.hj != nil {
		j.hj.Combine = combine
		return rel{j.p, j.hj, cols, src}
	}
	j.nl.Combine = combine
	return rel{j.p, j.nl, cols, src}
}

// all keeps both sides' columns, left then right.
func (j join) all() rel {
	return j.rel(j.p.distinct(append(append([]catalog.Column(nil), j.left...), j.right...)),
		append(append([]*bool(nil), j.lsrc...), j.rsrc...), nil)
}

// out lists the joined row's columns and values, read from either side.
func (j join) out(items ...any) rel {
	j.p.distinct(append(append([]catalog.Column(nil), j.left...), j.right...))
	cols, fn := layout{j.p, j.left, j.right, j.lsrc, j.rsrc}.out(items)
	return j.rel(cols, nil, fn)
}

// semi keeps each outer row that has a match, once.
func (j join) semi() rel {
	if j.nl == nil {
		j.p.fail("semi join of a hash join")
	}
	j.nl.Semi = true
	return j.rel(j.left, j.lsrc, func(dst, o, _ catalog.Tuple) catalog.Tuple { return append(dst, o...) })
}

// anti keeps the rows that have no match: a nested loop's outer rows, a
// hash join's probe rows.
func (j join) anti() rel {
	if j.hj != nil {
		j.hj.Anti = true
		return rel{j.p, j.hj, j.right, j.rsrc}
	}
	j.nl.Anti = true
	return rel{j.p, j.nl, j.left, j.lsrc}
}

// ---- aggregation ----

// keys are the parts of a group key: column names or vals.
type keys []any

func by(parts ...any) keys { return parts }

// agg is an aggregate, bound to its input and to the accumulator slot j
// it starts at.
type agg func(in layout, j int) aggregate

// aggregate is a bound agg: the accumulator slots it fills, seed, which
// appends them for a group's first row, and fold, which adds a later row
// (nil for a value kept from the first row).
type aggregate struct {
	cols []catalog.Column
	seed func(acc, t catalog.Tuple) catalog.Tuple
	fold func(acc, t catalog.Tuple)
}

// sum adds up a column or val, as a float or an integer by its type.
func sum(v any) agg {
	return func(in layout, j int) aggregate {
		c, get := in.get(v)
		switch c.Type {
		case catalog.Int64:
			return aggregate{[]catalog.Column{c},
				func(acc, t catalog.Tuple) catalog.Tuple { return append(acc, catalog.IntDatum(get(t, nil).I)) },
				func(acc, t catalog.Tuple) { acc[j].I += get(t, nil).I }}
		case catalog.Float64:
			return aggregate{[]catalog.Column{c},
				func(acc, t catalog.Tuple) catalog.Tuple { return append(acc, catalog.FloatDatum(get(t, nil).F)) },
				func(acc, t catalog.Tuple) { acc[j].F += get(t, nil).F }}
		}
		in.p.fail("cannot sum %s column %q", c.Type, c.Name)
		return aggregate{}
	}
}

// count counts a group's rows.
func count(name string) agg {
	return func(in layout, j int) aggregate {
		return aggregate{[]catalog.Column{{Name: name, Type: catalog.Int64}},
			func(acc, t catalog.Tuple) catalog.Tuple { return append(acc, catalog.IntDatum(1)) },
			func(acc, t catalog.Tuple) { acc[j].I++ }}
	}
}

// least keeps the smallest float of col and the named columns of the row
// it came from.
func least(col string, with ...string) agg {
	return func(in layout, j int) aggregate {
		a := aggregate{cols: make([]catalog.Column, 1+len(with))}
		at := make([]int, len(a.cols))
		for k, name := range append([]string{col}, with...) {
			var c pos
			a.cols[k], c = in.col(name)
			at[k] = c.i
		}
		a.seed = func(acc, t catalog.Tuple) catalog.Tuple {
			for _, i := range at {
				acc = append(acc, t[i])
			}
			return acc
		}
		a.fold = func(acc, t catalog.Tuple) {
			if t[at[0]].F < acc[j].F {
				for k, i := range at {
					acc[j+k] = t[i]
					acc[j+k].S = strings.Clone(t[i].S) // t is borrowed: do not pin its frame
				}
			}
		}
		return a
	}
}

// changes counts how often the integer col changes within a group, and
// keeps its last value: Q16's stand-in for count(distinct col).
func changes(name, col string) agg {
	return func(in layout, j int) aggregate {
		c, at := in.col(col)
		return aggregate{[]catalog.Column{{Name: name, Type: catalog.Int64}, c},
			func(acc, t catalog.Tuple) catalog.Tuple { return append(acc, catalog.IntDatum(1), t[at.i]) },
			func(acc, t catalog.Tuple) {
				if t[at.i].I != acc[j+1].I {
					acc[j].I++
					acc[j+1] = t[at.i]
				}
			}}
	}
}

// group is a hash aggregate of r. Its key is the bytes the grouping
// expression would print as: an integer's decimal digits, a string as it
// is, parts joined by '|', and "all" for a scalar aggregate. Its rows are
// the items: an agg, or a column name or val whose first value is kept.
func (r rel) group(k keys, items ...any) rel {
	in := r.in()
	type part struct {
		get func(a, b catalog.Tuple) catalog.Datum
		str bool
	}
	parts := make([]part, len(k))
	for i, it := range k {
		c, get := in.get(it)
		if c.Type == catalog.Float64 {
			r.p.fail("cannot group by float column %q", c.Name)
		}
		parts[i] = part{get, c.Type == catalog.String}
	}
	var cols []catalog.Column
	var seeds []func(acc, t catalog.Tuple) catalog.Tuple
	var folds []func(acc, t catalog.Tuple)
	for _, it := range items {
		var b aggregate
		if a, ok := it.(agg); ok {
			b = a(in, len(cols))
		} else { // the group's first value
			c, get := in.get(it)
			b = aggregate{[]catalog.Column{c}, func(acc, t catalog.Tuple) catalog.Tuple { return append(acc, get(t, nil)) }, nil}
		}
		cols, seeds = append(cols, b.cols...), append(seeds, b.seed)
		if b.fold != nil {
			folds = append(folds, b.fold)
		}
	}
	return rel{r.p, &exec.HashAgg{
		Child: r.op,
		GroupKey: func(key []byte, t catalog.Tuple) []byte {
			if len(parts) == 0 {
				return append(key, "all"...)
			}
			for i, pt := range parts {
				if i > 0 {
					key = append(key, '|')
				}
				if d := pt.get(t, nil); pt.str {
					key = append(key, d.S...)
				} else {
					key = strconv.AppendInt(key, d.I, 10)
				}
			}
			return key
		},
		NewGroup: func(acc, t catalog.Tuple) catalog.Tuple {
			for _, seed := range seeds {
				acc = seed(acc, t)
			}
			return acc
		},
		Merge: func(acc, t catalog.Tuple) catalog.Tuple {
			for _, fold := range folds {
				fold(acc, t)
			}
			return acc
		},
	}, r.p.distinct(cols), nil}
}

// finalize rewrites each row of r, a group, as it is emitted.
func (r rel) finalize(items ...any) rel {
	a, ok := r.op.(*exec.HashAgg)
	if !ok {
		r.p.fail("finalize of %T, not a group", r.op)
	}
	cols, fn := r.in().out(items)
	w := len(cols)
	a.Finalize = func(acc catalog.Tuple) catalog.Tuple { return fn(make(catalog.Tuple, 0, w), acc, nil) }
	return rel{r.p, a, cols, nil}
}

// ---- order ----

// order is one sort key: a column and its direction.
type order struct {
	col  string
	desc bool
}

func asc(col string) order  { return order{col, false} }
func desc(col string) order { return order{col, true} }

// less compares rows by the keys in turn. A datum sets only the field of
// its column's type, so comparing all three fields compares that one.
func (r rel) less(by []order) func(a, b catalog.Tuple) bool {
	at := make([]int, len(by))
	for n, o := range by {
		at[n] = r.at(o.col)
	}
	return func(a, b catalog.Tuple) bool {
		for n, i := range at {
			x, y := a[i], b[i]
			c := cmp.Compare(x.I, y.I)
			if c == 0 {
				c = cmp.Compare(x.F, y.F)
			}
			if c == 0 {
				c = strings.Compare(x.S, y.S)
			}
			if c != 0 {
				return (c < 0) != by[n].desc
			}
		}
		return false
	}
}

// sort orders r. It keeps its rows, so they are whole.
func (r rel) sort(by ...order) rel {
	return rel{r.p, &exec.Sort{Child: r.op, Less: r.whole().less(by)}, r.cols, r.src}
}

// top keeps r's first n rows in order. It keeps its rows, so they are
// whole.
func (r rel) top(n int, by ...order) rel {
	return rel{r.p, &exec.TopN{Child: r.op, N: n, Less: r.whole().less(by)}, r.cols, r.src}
}
