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

// Blocking implements Operator.
func (h *Hash) Blocking() bool { return true }

// Access implements Operator.
func (h *Hash) Access() (AccessInfo, bool) { return AccessInfo{}, false }

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
// partition is consumed.
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

	// in-memory path: the build rows are kept, so the table owns them.
	table map[int64][]catalog.Tuple

	// spilled path
	spilled    bool
	buildParts []*TempFile
	probeParts []*TempFile
	part       int
	partReader *TempReader

	// probe iteration state; probeTuple is borrowed, which is enough: it
	// is dropped before the probe side is advanced.
	probeTuple catalog.Tuple
	matches    []catalog.Tuple
	matchIdx   int
	scratch    catalog.Tuple
}

// Children implements Operator (build first).
func (j *HashJoin) Children() []Operator { return []Operator{j.Build, j.Probe} }

// Blocking implements Operator. The blocking element is the Hash node on
// the build side; the join itself streams the probe side.
func (j *HashJoin) Blocking() bool { return false }

// Access implements Operator.
func (j *HashJoin) Access() (AccessInfo, bool) { return AccessInfo{}, false }

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
	j.table = make(map[int64][]catalog.Tuple)
	j.spilled = false
	j.part = 0
	j.probeTuple, j.matches, j.matchIdx = nil, nil, 0

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
			j.table[k] = append(j.table[k], t.Owned())
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
		for _, t := range j.table[k] {
			if err := j.buildParts[p].Append(ctx, t); err != nil {
				return err
			}
		}
	}
	j.table = make(map[int64][]catalog.Tuple)
	return nil
}

// loadPartition builds the in-memory table for partition i and opens its
// probe reader. The build partition file is dropped immediately after
// loading — its lifetime is over.
func (j *HashJoin) loadPartition(ctx *Ctx, i int) error {
	j.table = make(map[int64][]catalog.Tuple)
	r := j.buildParts[i].NewReader()
	for {
		t, ok, err := r.Next(ctx)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		k := j.BuildKey(t)
		j.table[k] = append(j.table[k], t.Owned())
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
		if j.matchIdx < len(j.matches) {
			b := j.matches[j.matchIdx]
			j.matchIdx++
			if j.Pred != nil && !j.Pred(b, j.probeTuple) {
				continue
			}
			if j.Semi {
				j.matches = nil
				j.matchIdx = 0
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
		matches := j.table[j.ProbeKey(t)]
		if j.Anti {
			anyMatch := false
			for _, b := range matches {
				if j.Pred == nil || j.Pred(b, t) {
					anyMatch = true
					break
				}
			}
			j.matches, j.matchIdx = nil, 0
			if !anyMatch {
				return t, true, nil
			}
			continue
		}
		j.matches = matches
		j.matchIdx = 0
	}
}

// Close implements Operator.
func (j *HashJoin) Close(ctx *Ctx) error {
	j.table = nil
	j.matches = nil
	if !j.spilled {
		return j.Probe.Close(ctx)
	}
	// Temps that were not fully consumed are reclaimed by ReclaimTemps.
	return nil
}
