package exec

import (
	"fmt"
	"sort"

	"hstoragedb/internal/engine/catalog"
)

// spillPartitions is the fan-out of grace hash join / aggregation spills.
const spillPartitions = 8

// Hash is the explicit blocking "hash" operator of the paper's plan trees
// (build side of a hash join). It forwards its child's tuples; its role in
// planning is the Blocking flag that triggers level recalculation, and at
// runtime the parent HashJoin drains it entirely before probing.
type Hash struct {
	base
	Child Operator
}

// Children implements Operator.
func (h *Hash) Children() []Operator { return []Operator{h.Child} }

// Blocking declares a blocking operator (see Operator).
func (h *Hash) Blocking() bool { return true }

// Open implements Operator.
func (h *Hash) Open(ctx *Ctx) error { return h.Child.Open(ctx) }

// Next implements Operator.
func (h *Hash) Next(ctx *Ctx) (catalog.Tuple, bool, error) { return h.Child.Next(ctx) }

// Close implements Operator.
func (h *Hash) Close(ctx *Ctx) error { return h.Child.Close(ctx) }

// HashJoin joins Build (conventionally wrapped in a Hash node) against
// Probe on int64 keys. When the build side exceeds ctx.WorkMem tuples the
// join degrades to a grace hash join: both inputs are partitioned into
// temporary files (Rule 3 traffic) and joined partition by partition; the
// temp files are deleted — and their blocks TRIMmed — as soon as each
// partition is consumed. The join is not itself blocking: the blocking
// element is the Hash on the build side, and the join streams its probe
// side.
type HashJoin struct {
	base
	Build Operator
	Probe Operator
	// BuildKey/ProbeKey extract the join keys.
	BuildKey func(catalog.Tuple) int64
	ProbeKey func(catalog.Tuple) int64
	// Combine appends the joined row for a matching pair to dst and
	// returns it, like append (nil = build then probe). dst is the join's
	// scratch, emptied: the result is the row Next returns, and the
	// arguments are borrowed, so Combine keeps none of them.
	Combine func(dst, build, probe catalog.Tuple) catalog.Tuple
	// Pred filters joined pairs (nil = all).
	Pred func(build, probe catalog.Tuple) bool
	// Semi emits each probe tuple at most once on first match; Anti emits
	// probe tuples with no match.
	Semi, Anti bool

	// in-memory path: the build rows are kept, packed in rows; table maps
	// a key to its first and last row, and next (by arrival number)
	// chains each key's rows in arrival order.
	rows  rowArena
	table map[int64]chain
	next  []rowRef

	// spilled path
	spilled    bool
	buildParts []*TempFile
	probeParts []*TempFile
	part       int
	partReader *TempReader

	// probe iteration state; probeTuple is borrowed, which is enough: it
	// is dropped before the probe side is advanced. match is the next
	// build row to try against it.
	probeTuple catalog.Tuple
	match      rowRef
	scratch    catalog.Tuple
}

// chain is a key's build rows: the first and the last to arrive.
type chain struct{ first, last rowRef }

// Children implements Operator (build first).
func (j *HashJoin) Children() []Operator { return []Operator{j.Build, j.Probe} }

func part(key int64) int {
	h := uint64(key) * 0x9E3779B97F4A7C15
	return int(h % spillPartitions)
}

// combine builds a join's output row in dst: fn's, or a then b.
func combine(fn func(dst, a, b catalog.Tuple) catalog.Tuple, dst, a, b catalog.Tuple) catalog.Tuple {
	if fn != nil {
		return fn(dst, a, b)
	}
	return append(append(dst, a...), b...)
}

// Open implements Operator: drains the build side, spilling if needed,
// and prepares the probe side.
func (j *HashJoin) Open(ctx *Ctx) error {
	if j.Semi && j.Anti {
		return fmt.Errorf("exec: HashJoin cannot be both semi and anti")
	}
	j.resetTable(0)
	j.spilled = false
	j.part = 0
	j.probeTuple, j.match = nil, noRow

	if err := j.Build.Open(ctx); err != nil {
		return err
	}
	built := 0
	for {
		t, ok, err := j.Build.Next(ctx)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		ctx.ChargeTuples(1)
		k := j.BuildKey(t)
		if !j.spilled {
			if err := j.keep(k, t); err != nil {
				return err
			}
			built++
			if ctx.WorkMem > 0 && built > ctx.WorkMem {
				if err := j.startSpill(ctx); err != nil {
					return err
				}
			}
			continue
		}
		if err := j.buildParts[part(k)].Append(ctx, t); err != nil {
			return err
		}
	}
	if err := j.Build.Close(ctx); err != nil {
		return err
	}

	if err := j.Probe.Open(ctx); err != nil {
		return err
	}
	if !j.spilled {
		return nil
	}
	widen(j.Probe) // its rows go to the partition files
	for _, tf := range j.buildParts {
		if err := tf.Finish(ctx); err != nil {
			return err
		}
	}

	// Partition the probe side too.
	j.probeParts = make([]*TempFile, spillPartitions)
	for i := range j.probeParts {
		tf, err := ctx.CreateTemp()
		if err != nil {
			return err
		}
		j.probeParts[i] = tf
	}
	for {
		t, ok, err := j.Probe.Next(ctx)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		ctx.ChargeTuples(1)
		if err := j.probeParts[part(j.ProbeKey(t))].Append(ctx, t); err != nil {
			return err
		}
	}
	for _, tf := range j.probeParts {
		if err := tf.Finish(ctx); err != nil {
			return err
		}
	}
	return j.Probe.Close(ctx)
}

// resetTable empties the build table for hint rows, keeping its space.
func (j *HashJoin) resetTable(hint int) {
	if j.table == nil {
		j.table = make(map[int64]chain)
	}
	clear(j.table)
	j.next = j.next[:0]
	j.rows.reset(hint)
}

// keep adds the build row t under key k, copying it into the table.
func (j *HashJoin) keep(k int64, t catalog.Tuple) error {
	r, err := j.rows.add(t)
	if err != nil {
		return err
	}
	j.next = append(j.next, noRow)
	c, ok := j.table[k]
	if ok {
		j.next[j.rows.seq(c.last)] = r
		c.last = r
	} else {
		c = chain{r, r}
	}
	j.table[k] = c
	return nil
}

// startSpill converts the in-memory build table into partition files.
func (j *HashJoin) startSpill(ctx *Ctx) error {
	j.spilled = true
	j.buildParts = make([]*TempFile, spillPartitions)
	for i := range j.buildParts {
		tf, err := ctx.CreateTemp()
		if err != nil {
			return err
		}
		j.buildParts[i] = tf
	}
	// Spill in key order, not map order: the order tuples land in the
	// partition files decides the temp-file I/O that follows.
	keys := make([]int64, 0, len(j.table))
	for k := range j.table {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
	for _, k := range keys {
		p := part(k)
		for r := j.table[k].first; r != noRow; r = j.next[j.rows.seq(r)] {
			if err := j.buildParts[p].Append(ctx, j.rows.row(r)); err != nil {
				return err
			}
		}
	}
	j.resetTable(0)
	return nil
}

// loadPartition builds the in-memory table for partition i and opens its
// probe reader. The build partition file is dropped immediately after
// loading — its lifetime is over.
func (j *HashJoin) loadPartition(ctx *Ctx, i int) error {
	j.resetTable(int(j.buildParts[i].Rows()))
	r := j.buildParts[i].NewReader()
	for {
		t, ok, err := r.Next(ctx)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if err := j.keep(j.BuildKey(t), t); err != nil {
			return err
		}
	}
	if err := ctx.DropTemp(j.buildParts[i]); err != nil {
		return err
	}
	j.partReader = j.probeParts[i].NewReader()
	return nil
}

// nextProbe returns the next probe-side tuple from memory or partitions.
func (j *HashJoin) nextProbe(ctx *Ctx) (catalog.Tuple, bool, error) {
	if !j.spilled {
		t, ok, err := j.Probe.Next(ctx)
		if ok {
			ctx.ChargeTuples(1)
		}
		return t, ok, err
	}
	for {
		if j.partReader == nil {
			if j.part >= spillPartitions {
				return nil, false, nil
			}
			if err := j.loadPartition(ctx, j.part); err != nil {
				return nil, false, err
			}
		}
		t, ok, err := j.partReader.Next(ctx)
		if err != nil {
			return nil, false, err
		}
		if ok {
			return t, true, nil
		}
		// Partition exhausted: its probe temp's lifetime ends here.
		if err := ctx.DropTemp(j.probeParts[j.part]); err != nil {
			return nil, false, err
		}
		j.partReader = nil
		j.part++
	}
}

// Next implements Operator.
func (j *HashJoin) Next(ctx *Ctx) (catalog.Tuple, bool, error) {
	for {
		for j.match != noRow {
			b := j.rows.row(j.match)
			j.match = j.next[j.rows.seq(j.match)]
			if j.Pred != nil && !j.Pred(b, j.probeTuple) {
				continue
			}
			if j.Semi {
				j.match = noRow
			}
			j.scratch = combine(j.Combine, j.scratch[:0], b, j.probeTuple)
			return j.scratch, true, nil
		}
		t, ok, err := j.nextProbe(ctx)
		if err != nil {
			return nil, false, err
		}
		if !ok {
			return nil, false, nil
		}
		j.probeTuple = t
		first := noRow
		if c, ok := j.table[j.ProbeKey(t)]; ok {
			first = c.first
		}
		if !j.Anti {
			j.match = first
			continue
		}
		anyMatch := false
		for r := first; r != noRow && !anyMatch; r = j.next[j.rows.seq(r)] {
			anyMatch = j.Pred == nil || j.Pred(j.rows.row(r), t)
		}
		if !anyMatch {
			return t, true, nil
		}
	}
}

// Close implements Operator.
func (j *HashJoin) Close(ctx *Ctx) error {
	j.table, j.next = nil, nil
	j.rows.free()
	j.match = noRow
	if !j.spilled {
		return j.Probe.Close(ctx)
	}
	// Temps that were not fully consumed are reclaimed by ReclaimTemps.
	return nil
}
