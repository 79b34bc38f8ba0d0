package exec

import (
	"hstoragedb/internal/engine/catalog"
)

// Filter applies a predicate to its child's output. Pred sees borrowed
// tuples and must not keep them.
type Filter struct {
	base
	Child Operator
	Pred  func(catalog.Tuple) bool
}

// Children implements Operator.
func (f *Filter) Children() []Operator { return []Operator{f.Child} }

// Blocking implements Operator.
func (f *Filter) Blocking() bool { return false }

// Access implements Operator.
func (f *Filter) Access() (AccessInfo, bool) { return AccessInfo{}, false }

// Open implements Operator.
func (f *Filter) Open(ctx *Ctx) error { return f.Child.Open(ctx) }

// Next implements Operator.
func (f *Filter) Next(ctx *Ctx) (catalog.Tuple, bool, error) {
	for {
		t, ok, err := f.Child.Next(ctx)
		if err != nil || !ok {
			return nil, false, err
		}
		if f.Pred(t) {
			return t, true, nil
		}
	}
}

// Close implements Operator.
func (f *Filter) Close(ctx *Ctx) error { return f.Child.Close(ctx) }

// Project rewrites each tuple of its child's output.
type Project struct {
	base
	Child Operator
	// Fn appends the rewritten row to dst and returns it, like append.
	// dst is the operator's scratch, emptied: the result is the row Next
	// returns, and t is borrowed, so Fn does not keep it.
	Fn func(dst, t catalog.Tuple) catalog.Tuple

	scratch catalog.Tuple
}

// Children implements Operator.
func (p *Project) Children() []Operator { return []Operator{p.Child} }

// Blocking implements Operator.
func (p *Project) Blocking() bool { return false }

// Access implements Operator.
func (p *Project) Access() (AccessInfo, bool) { return AccessInfo{}, false }

// Open implements Operator.
func (p *Project) Open(ctx *Ctx) error { return p.Child.Open(ctx) }

// Next implements Operator.
func (p *Project) Next(ctx *Ctx) (catalog.Tuple, bool, error) {
	t, ok, err := p.Child.Next(ctx)
	if err != nil || !ok {
		return nil, false, err
	}
	p.scratch = p.Fn(p.scratch[:0], t)
	return p.scratch, true, nil
}

// Close implements Operator.
func (p *Project) Close(ctx *Ctx) error { return p.Child.Close(ctx) }

// Limit emits at most N tuples.
type Limit struct {
	base
	Child Operator
	N     int64

	emitted int64
}

// Children implements Operator.
func (l *Limit) Children() []Operator { return []Operator{l.Child} }

// Blocking implements Operator.
func (l *Limit) Blocking() bool { return false }

// Access implements Operator.
func (l *Limit) Access() (AccessInfo, bool) { return AccessInfo{}, false }

// Open implements Operator.
func (l *Limit) Open(ctx *Ctx) error {
	l.emitted = 0
	return l.Child.Open(ctx)
}

// Next implements Operator.
func (l *Limit) Next(ctx *Ctx) (catalog.Tuple, bool, error) {
	if l.emitted >= l.N {
		return nil, false, nil
	}
	t, ok, err := l.Child.Next(ctx)
	if err != nil || !ok {
		return nil, false, err
	}
	l.emitted++
	return t, true, nil
}

// Close implements Operator.
func (l *Limit) Close(ctx *Ctx) error { return l.Child.Close(ctx) }

// Values replays an in-memory tuple list (used by RF drivers and tests).
type Values struct {
	base
	Rows []catalog.Tuple

	idx int
}

// Children implements Operator.
func (v *Values) Children() []Operator { return nil }

// Blocking implements Operator.
func (v *Values) Blocking() bool { return false }

// Access implements Operator.
func (v *Values) Access() (AccessInfo, bool) { return AccessInfo{}, false }

// Open implements Operator.
func (v *Values) Open(ctx *Ctx) error {
	v.idx = 0
	return nil
}

// Next implements Operator.
func (v *Values) Next(ctx *Ctx) (catalog.Tuple, bool, error) {
	if v.idx >= len(v.Rows) {
		return nil, false, nil
	}
	t := v.Rows[v.idx]
	v.idx++
	return t, true, nil
}

// Close implements Operator.
func (v *Values) Close(ctx *Ctx) error { return nil }
