package exec

import (
	"fmt"

	"hstoragedb/internal/engine/btree"
	"hstoragedb/internal/engine/catalog"
	"hstoragedb/internal/engine/heap"
	"hstoragedb/internal/engine/policy"
	"hstoragedb/internal/pagestore"
)

// TableHandle binds a catalog table to its heap file.
type TableHandle struct {
	Info *catalog.TableInfo
	File *heap.File
}

// NewTableHandle builds a handle for a regular table.
func NewTableHandle(info *catalog.TableInfo) *TableHandle {
	return &TableHandle{
		Info: info,
		File: heap.NewFile(info.ID, info.Schema, policy.Table),
	}
}

// Pages reports the table's current heap size in pages.
func (h *TableHandle) Pages(ctx *Ctx) int64 {
	return ctx.Mgr.Store().Pages(h.Info.ID)
}

// The leaf operators decode each row in place: into a scratch tuple
// whose strings alias the page frame (a borrowed tuple). Pred runs on it
// and a surviving row is returned as it is, so a row costs no allocation
// until an operator keeps it. The returned tuple is valid until the next
// call of Next on the same operator; whoever keeps a row (and Pred must
// not) takes Tuple.Owned.
//
// SeqScan and IndexProbe decode only the columns of Cols, the set their
// plan reads (nil: every column); the others hold catalog's poison
// datum. A row that reaches a temp file must be full width, because its
// encoded size drives Rule 3 and simulated time, so an operator that is
// about to spill rows widens its input first (see widen).

// widen makes the rows op returns full width from the next one on. It
// widens the scans whose rows op passes on as they are: a Filter's child,
// a hash join's probe side when the join returns probe rows whole
// (Combine nil, or an anti join), a nested loop's outer side when it
// returns outer rows (Combine nil, anti, or semi, whose Combine copies
// the outer row) and its inner side when Combine is nil and the join is
// not anti. It stops at an operator that builds its own rows. The rows an
// operator keeps (a hash join's build, Sort, TopN) are full width
// already: the plan marks every column they carry.
func widen(op Operator) {
	switch o := op.(type) {
	case *SeqScan:
		o.widen()
	case *IndexProbe:
		o.widen()
	case *Filter:
		widen(o.Child)
	case *HashJoin:
		if o.Combine == nil || o.Anti {
			widen(o.Probe)
		}
	case *NestLoop:
		if o.Semi || o.Anti || o.Combine == nil {
			widen(o.Outer)
		}
		if o.Combine == nil && !o.Anti {
			widen(o.Probe)
		}
	}
}

// SeqScan is the sequential-scan leaf operator: Rule 1 traffic.
type SeqScan struct {
	base
	Table *TableHandle
	// Pred filters tuples (nil = all).
	Pred func(catalog.Tuple) bool
	// Cols are the columns the plan reads (nil = all).
	Cols []bool

	scanner *heap.Scanner
	wide    bool
}

// Children implements Operator.
func (s *SeqScan) Children() []Operator { return nil }

// Access declares the storage objects read (see Operator).
func (s *SeqScan) Access() (AccessInfo, bool) {
	return AccessInfo{Objects: []pagestore.ObjectID{s.Table.Info.ID}, Random: false}, true
}

// Open implements Operator.
func (s *SeqScan) Open(ctx *Ctx) error {
	s.scanner = s.Table.File.NewScanner(ctx.Clk, ctx.Pool, s.Table.Pages(ctx))
	if s.Cols != nil && !s.wide {
		s.scanner.Decode(catalog.NewDecoder(s.Table.Info.Schema, s.Cols))
	}
	return nil
}

// widen decodes every column from the next row on.
func (s *SeqScan) widen() {
	if s.Cols == nil || s.wide {
		return
	}
	s.wide = true
	if s.scanner != nil {
		s.scanner.Decode(nil)
	}
}

// Next implements Operator.
func (s *SeqScan) Next(ctx *Ctx) (catalog.Tuple, bool, error) {
	for {
		t, _, ok, err := s.scanner.NextBorrowed()
		if err != nil || !ok {
			return nil, false, err
		}
		ctx.ChargeTuples(1)
		if s.Pred == nil || s.Pred(t) {
			return t, true, nil
		}
	}
}

// Close implements Operator.
func (s *SeqScan) Close(ctx *Ctx) error {
	s.scanner = nil
	return nil
}

// IndexScan is the range index-scan leaf operator: Rule 2 traffic against
// both the index pages and the table pages it fetches.
type IndexScan struct {
	base
	Index *catalog.IndexInfo
	Table *TableHandle
	// Lo and Hi bound the key range (inclusive).
	Lo, Hi int64
	// Pred filters fetched tuples (nil = all).
	Pred func(catalog.Tuple) bool
	// KeyOnly skips the heap fetch and emits single-datum tuples holding
	// the key (index-only scan).
	KeyOnly bool

	tree    *btree.Tree
	it      *btree.Iterator
	scratch catalog.Tuple
}

// Children implements Operator.
func (s *IndexScan) Children() []Operator { return nil }

// Access declares the storage objects read (see Operator).
func (s *IndexScan) Access() (AccessInfo, bool) {
	return AccessInfo{
		Objects: []pagestore.ObjectID{s.Index.ID, s.Table.Info.ID},
		Random:  true,
	}, true
}

// Open implements Operator.
func (s *IndexScan) Open(ctx *Ctx) error {
	s.tree = btree.Open(s.Index.ID, ctx.Pool)
	var err error
	s.it, err = s.tree.Seek(ctx.Clk, s.Lo, s.Hi, s.Level())
	return err
}

// Next implements Operator.
func (s *IndexScan) Next(ctx *Ctx) (catalog.Tuple, bool, error) {
	for {
		e, ok, err := s.it.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		ctx.ChargeTuples(1)
		if s.KeyOnly {
			s.scratch = append(s.scratch[:0], catalog.IntDatum(e.Key))
			return s.scratch, true, nil
		}
		t, err := s.Table.File.FetchBorrowed(ctx.Clk, ctx.Pool, e.RID, s.Level(), nil, s.scratch)
		if err != nil {
			return nil, false, err
		}
		if t == nil {
			continue // tombstoned by a concurrent delete
		}
		s.scratch = t
		if s.Pred == nil || s.Pred(t) {
			return t, true, nil
		}
	}
}

// Close implements Operator.
func (s *IndexScan) Close(ctx *Ctx) error {
	s.it = nil
	return nil
}

// IndexProbe is the inner "index scan" leaf of an index nested-loop join
// (the operator shape in the paper's Figures 7 and 8). The parent NestLoop
// rebinds its key for every outer tuple; each probe walks the B+tree and
// fetches matching heap tuples — all random requests at the probe's own
// plan level.
type IndexProbe struct {
	base
	Index *catalog.IndexInfo
	Table *TableHandle
	// Pred filters fetched tuples (nil = all).
	Pred func(catalog.Tuple) bool
	// Cols are the columns the plan reads (nil = all).
	Cols []bool

	tree    *btree.Tree
	key     int64
	rids    []catalog.RID
	idx     int
	dec     *catalog.Decoder // nil: every column
	wide    bool
	scratch catalog.Tuple
}

// Children implements Operator.
func (p *IndexProbe) Children() []Operator { return nil }

// Access declares the storage objects read (see Operator).
func (p *IndexProbe) Access() (AccessInfo, bool) {
	return AccessInfo{
		Objects: []pagestore.ObjectID{p.Index.ID, p.Table.Info.ID},
		Random:  true,
	}, true
}

// Open implements Operator.
func (p *IndexProbe) Open(ctx *Ctx) error {
	p.tree = btree.Open(p.Index.ID, ctx.Pool)
	if p.Cols != nil && !p.wide && p.dec == nil {
		p.dec = catalog.NewDecoder(p.Table.Info.Schema, p.Cols)
	}
	return nil
}

// widen decodes every column from the next row on.
func (p *IndexProbe) widen() {
	if p.Cols == nil || p.wide {
		return
	}
	p.wide = true
	p.dec, p.scratch = nil, nil
}

// Bind positions the probe on a new key.
func (p *IndexProbe) Bind(ctx *Ctx, key int64) error {
	if p.tree == nil {
		if err := p.Open(ctx); err != nil {
			return err
		}
	}
	p.key = key
	rids, err := p.tree.Lookup(ctx.Clk, key, p.Level(), p.rids[:0]...)
	if err != nil {
		return err
	}
	p.rids = rids
	p.idx = 0
	return nil
}

// Next implements Operator: the next matching inner tuple for the bound
// key.
func (p *IndexProbe) Next(ctx *Ctx) (catalog.Tuple, bool, error) {
	for p.idx < len(p.rids) {
		rid := p.rids[p.idx]
		p.idx++
		ctx.ChargeTuples(1)
		t, err := p.Table.File.FetchBorrowed(ctx.Clk, ctx.Pool, rid, p.Level(), p.dec, p.scratch)
		if err != nil {
			return nil, false, err
		}
		if t == nil {
			continue // tombstoned by a concurrent delete
		}
		p.scratch = t
		if p.Pred == nil || p.Pred(t) {
			return t, true, nil
		}
	}
	return nil, false, nil
}

// Close implements Operator.
func (p *IndexProbe) Close(ctx *Ctx) error {
	p.tree = nil
	p.rids = nil
	return nil
}

// NestLoop is an index nested-loop join: for each outer tuple it rebinds
// the inner IndexProbe and emits combined matches.
type NestLoop struct {
	base
	Outer Operator
	Probe *IndexProbe
	// OuterKey extracts the join key from an outer tuple.
	OuterKey func(catalog.Tuple) int64
	// Combine appends the joined row for a matching pair to dst and
	// returns it, like append (nil = outer then inner). dst is the join's
	// scratch, emptied: the result is the row Next returns, and the
	// arguments are borrowed, so Combine keeps none of them.
	Combine func(dst, outer, inner catalog.Tuple) catalog.Tuple
	// Pred filters joined pairs (nil = all).
	Pred func(outer, inner catalog.Tuple) bool
	// Semi emits each outer tuple at most once (existential join); Anti
	// emits outer tuples with no match. Semi and Anti are exclusive.
	Semi, Anti bool

	// cur is the outer row being probed: borrowed, which is enough, since
	// it is dropped before Outer.Next is called again.
	cur     catalog.Tuple
	scratch catalog.Tuple
}

// Children implements Operator (outer executes first).
func (n *NestLoop) Children() []Operator { return []Operator{n.Outer, n.Probe} }

// Open implements Operator.
func (n *NestLoop) Open(ctx *Ctx) error {
	if n.Semi && n.Anti {
		return fmt.Errorf("exec: NestLoop cannot be both semi and anti")
	}
	if err := n.Outer.Open(ctx); err != nil {
		return err
	}
	return n.Probe.Open(ctx)
}

// Next implements Operator.
func (n *NestLoop) Next(ctx *Ctx) (catalog.Tuple, bool, error) {
	for {
		if n.cur == nil {
			t, ok, err := n.Outer.Next(ctx)
			if err != nil || !ok {
				return nil, false, err
			}
			n.cur = t
			if err := n.Probe.Bind(ctx, n.OuterKey(t)); err != nil {
				return nil, false, err
			}
			if n.Anti {
				matched := false
				for {
					inner, ok, err := n.Probe.Next(ctx)
					if err != nil {
						return nil, false, err
					}
					if !ok {
						break
					}
					if n.Pred == nil || n.Pred(n.cur, inner) {
						matched = true
						break
					}
				}
				out := n.cur
				n.cur = nil
				if !matched {
					ctx.ChargeTuples(1)
					return out, true, nil
				}
				continue
			}
		}
		inner, ok, err := n.Probe.Next(ctx)
		if err != nil {
			return nil, false, err
		}
		if !ok {
			n.cur = nil
			continue
		}
		if n.Pred != nil && !n.Pred(n.cur, inner) {
			continue
		}
		ctx.ChargeTuples(1)
		outer := n.cur
		if n.Semi {
			n.cur = nil
		}
		n.scratch = combine(n.Combine, n.scratch[:0], outer, inner)
		return n.scratch, true, nil
	}
}

// Close implements Operator.
func (n *NestLoop) Close(ctx *Ctx) error {
	err1 := n.Outer.Close(ctx)
	err2 := n.Probe.Close(ctx)
	if err1 != nil {
		return err1
	}
	return err2
}
