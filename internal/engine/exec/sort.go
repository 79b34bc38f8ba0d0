package exec

import (
	"container/heap"
	"sort"

	"hstoragedb/internal/engine/catalog"
)

// Sort is the blocking external sort operator. Runs of ctx.WorkMem tuples
// are sorted in memory and spilled to temporary files, then merged k-way;
// the run files are deleted (and TRIMmed) when the merge finishes.
type Sort struct {
	base
	Child Operator
	Less  func(a, b catalog.Tuple) bool

	// in-memory path
	rows []catalog.Tuple
	idx  int

	// external path
	runs  []*TempFile
	merge *runHeap
}

// Children implements Operator.
func (s *Sort) Children() []Operator { return []Operator{s.Child} }

// Blocking implements Operator.
func (s *Sort) Blocking() bool { return true }

// Access implements Operator.
func (s *Sort) Access() (AccessInfo, bool) { return AccessInfo{}, false }

// Open implements Operator: consume the child into sorted runs.
func (s *Sort) Open(ctx *Ctx) error {
	s.rows = nil
	s.idx = 0
	s.runs = nil
	s.merge = nil

	if err := s.Child.Open(ctx); err != nil {
		return err
	}
	for {
		t, ok, err := s.Child.Next(ctx)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		ctx.ChargeTuples(1)
		s.rows = append(s.rows, t.Owned())
		if ctx.WorkMem > 0 && len(s.rows) >= ctx.WorkMem {
			if err := s.spillRun(ctx); err != nil {
				return err
			}
		}
	}
	if err := s.Child.Close(ctx); err != nil {
		return err
	}

	if len(s.runs) == 0 {
		sort.SliceStable(s.rows, func(i, j int) bool { return s.Less(s.rows[i], s.rows[j]) })
		return nil
	}
	// Spill the trailing partial run and set up the merge.
	if len(s.rows) > 0 {
		if err := s.spillRun(ctx); err != nil {
			return err
		}
	}
	s.merge = &runHeap{less: s.Less}
	for _, run := range s.runs {
		r := run.NewReader()
		t, ok, err := r.Next(ctx)
		if err != nil {
			return err
		}
		if ok {
			s.merge.items = append(s.merge.items, runItem{tuple: t, reader: r})
		}
	}
	heap.Init(s.merge)
	return nil
}

// spillRun sorts and writes the buffered tuples as one run.
func (s *Sort) spillRun(ctx *Ctx) error {
	sort.SliceStable(s.rows, func(i, j int) bool { return s.Less(s.rows[i], s.rows[j]) })
	tf, err := ctx.CreateTemp()
	if err != nil {
		return err
	}
	for _, t := range s.rows {
		if err := tf.Append(ctx, t); err != nil {
			return err
		}
	}
	if err := tf.Finish(ctx); err != nil {
		return err
	}
	s.runs = append(s.runs, tf)
	s.rows = s.rows[:0]
	return nil
}

// Next implements Operator.
func (s *Sort) Next(ctx *Ctx) (catalog.Tuple, bool, error) {
	if s.merge == nil {
		if s.idx >= len(s.rows) {
			return nil, false, nil
		}
		t := s.rows[s.idx]
		s.idx++
		return t, true, nil
	}
	if s.merge.Len() == 0 {
		// Merge finished: the runs' lifetime is over.
		for _, run := range s.runs {
			if err := ctx.DropTemp(run); err != nil {
				return nil, false, err
			}
		}
		s.runs = nil
		return nil, false, nil
	}
	// The winning run is advanced before its row is handed out, because
	// that is where its next page read has always happened; out survives
	// the advance because a TempReader alternates between two slabs.
	top := &s.merge.items[0]
	out := top.tuple
	t, ok, err := top.reader.Next(ctx)
	if err != nil {
		return nil, false, err
	}
	if ok {
		top.tuple = t
		heap.Fix(s.merge, 0)
	} else {
		heap.Pop(s.merge)
	}
	return out, true, nil
}

// Close implements Operator.
func (s *Sort) Close(ctx *Ctx) error {
	s.rows = nil
	s.merge = nil
	return nil
}

// runItem is one merge input: a run and its current row, borrowed from
// the run's reader.
type runItem struct {
	tuple  catalog.Tuple
	reader *TempReader
}

// runHeap is the k-way merge heap.
type runHeap struct {
	items []runItem
	less  func(a, b catalog.Tuple) bool
}

func (h *runHeap) Len() int           { return len(h.items) }
func (h *runHeap) Less(i, j int) bool { return h.less(h.items[i].tuple, h.items[j].tuple) }
func (h *runHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *runHeap) Push(x interface{}) { h.items = append(h.items, x.(runItem)) }
func (h *runHeap) Pop() interface{} {
	old := h.items
	n := len(old)
	it := old[n-1]
	h.items = old[:n-1]
	return it
}

// TopN keeps the N smallest tuples by Less without spilling (bounded
// memory): the executor's ORDER BY ... LIMIT pattern. Among rows that
// compare equal, the ones seen first win.
type TopN struct {
	base
	Child Operator
	N     int
	Less  func(a, b catalog.Tuple) bool

	rows []catalog.Tuple
	idx  int
}

// Children implements Operator.
func (t *TopN) Children() []Operator { return []Operator{t.Child} }

// Blocking implements Operator.
func (t *TopN) Blocking() bool { return true }

// Access implements Operator.
func (t *TopN) Access() (AccessInfo, bool) { return AccessInfo{}, false }

// Open implements Operator.
func (t *TopN) Open(ctx *Ctx) error {
	t.rows = nil
	t.idx = 0
	if err := t.Child.Open(ctx); err != nil {
		return err
	}
	// worst is the N-th candidate as of the last shrink. A row that is
	// not strictly better has N rows ahead of it in the stable order,
	// all seen earlier, and can never be output: it is not copied.
	var worst catalog.Tuple
	for {
		tu, ok, err := t.Child.Next(ctx)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		ctx.ChargeTuples(1)
		if worst != nil && !t.Less(tu, worst) {
			continue
		}
		t.rows = append(t.rows, tu.Owned())
		if len(t.rows) > 4*t.N && t.N > 0 {
			t.shrink()
			worst = t.rows[t.N-1]
		}
	}
	t.shrink()
	return t.Child.Close(ctx)
}

// shrink sorts and truncates the candidate buffer to N.
func (t *TopN) shrink() {
	sort.SliceStable(t.rows, func(i, j int) bool { return t.Less(t.rows[i], t.rows[j]) })
	if t.N > 0 && len(t.rows) > t.N {
		t.rows = t.rows[:t.N]
	}
}

// Next implements Operator.
func (t *TopN) Next(ctx *Ctx) (catalog.Tuple, bool, error) {
	if t.idx >= len(t.rows) {
		return nil, false, nil
	}
	out := t.rows[t.idx]
	t.idx++
	return out, true, nil
}

// Close implements Operator.
func (t *TopN) Close(ctx *Ctx) error {
	t.rows = nil
	return nil
}
