package exec

import (
	"fmt"
	"unsafe"

	"hstoragedb/internal/engine/catalog"
)

// HashAgg groups its input by a byte-string key and folds each group with
// user-supplied functions (the paper's "hash aggregate" blocking
// operator). When the number of resident groups exceeds ctx.WorkMem,
// overflow tuples are partitioned into temporary files and aggregated
// partition by partition — generating the Rule 3 temp-data traffic
// Section 6.3.3 studies via Q18.
type HashAgg struct {
	base
	Child Operator
	// GroupKey appends the grouping key of t to key and returns it, like
	// append. key is the operator's scratch, emptied; t is borrowed. An
	// input row that falls into an existing group allocates nothing.
	GroupKey func(key []byte, t catalog.Tuple) []byte
	// NewGroup appends the initial accumulator of the group t starts to
	// dst and returns it, like append. dst is the operator's scratch,
	// emptied; t is borrowed, and the accumulator may hold its string
	// datums as they are: HashAgg copies the accumulator, strings
	// included, into its own arena, so a new group allocates nothing
	// but the arena's occasional chunk. Every accumulator of one HashAgg
	// has the same number of columns.
	NewGroup func(dst, t catalog.Tuple) catalog.Tuple
	// Merge folds a tuple into an accumulator in place and returns it. A
	// different tuple of the same width is copied over the accumulator;
	// one of another width is an error. t is borrowed.
	Merge func(acc catalog.Tuple, t catalog.Tuple) catalog.Tuple
	// Finalize post-processes an accumulator before emission (nil =
	// identity).
	Finalize func(acc catalog.Tuple) catalog.Tuple

	// groups maps a key, whose bytes live in keys, to its accumulator in
	// accs. accs is in first-seen order: the emission order, and so the
	// probe order of every operator above, is a function of the input
	// alone (a map walk would vary run to run).
	groups  map[string]rowRef
	accs    rowArena
	keys    byteArena
	key     []byte
	scratch catalog.Tuple
	emit    rowRef // the next accumulator Next returns
	spills  []*TempFile
	part    int
	spilled bool
}

// Children implements Operator.
func (a *HashAgg) Children() []Operator { return []Operator{a.Child} }

// Blocking declares a blocking operator (see Operator): aggregation
// cannot emit before consuming its whole input.
func (a *HashAgg) Blocking() bool { return true }

// strPart is FNV-1a of the key, modulo the fan-out.
func strPart(key []byte) int {
	h := uint32(2166136261)
	for _, c := range key {
		h = (h ^ uint32(c)) * 16777619
	}
	return int(h % spillPartitions)
}

// fold merges t into its group's accumulator and reports true, or
// reports false if the group is not resident. a.key holds t's key after.
func (a *HashAgg) fold(t catalog.Tuple) (bool, error) {
	a.key = a.GroupKey(a.key[:0], t)
	r, ok := a.groups[string(a.key)]
	if !ok {
		return false, nil
	}
	acc := a.accs.row(r)
	if m := a.Merge(acc, t); unsafe.SliceData(m) != unsafe.SliceData(acc) {
		if len(m) != len(acc) {
			return true, fmt.Errorf("exec: Merge returned %d columns for a %d-column accumulator", len(m), len(acc))
		}
		copy(acc, m)
	}
	return true, nil
}

// addGroup starts the group of a.key with t. The key and the
// accumulator, strings included, are copied into the operator's arenas,
// so that no group pins the page frame its first row came from.
func (a *HashAgg) addGroup(t catalog.Tuple) error {
	a.scratch = a.NewGroup(a.scratch[:0], t)
	r, err := a.accs.add(a.scratch)
	if err != nil {
		return err
	}
	a.groups[a.keys.bytes(a.key)] = r
	return nil
}

// resetGroups empties the groups, keeping their space. The map goes
// first: its keys alias the key arena.
func (a *HashAgg) resetGroups() {
	if a.groups == nil {
		a.groups = make(map[string]rowRef)
	}
	clear(a.groups)
	a.accs.reset(0)
	a.keys.reset()
}

// Open implements Operator: drains the child, spilling overflow groups.
func (a *HashAgg) Open(ctx *Ctx) error {
	a.resetGroups()
	a.part = 0
	a.spilled = false
	a.spills = nil

	if err := a.Child.Open(ctx); err != nil {
		return err
	}
	for {
		t, ok, err := a.Child.Next(ctx)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		ctx.ChargeTuples(1)
		folded, err := a.fold(t)
		if err != nil {
			return err
		}
		if folded {
			continue
		}
		if ctx.WorkMem > 0 && len(a.groups) >= ctx.WorkMem {
			// Overflow: defer this tuple to its partition file.
			if !a.spilled {
				a.spilled = true
				a.spills = make([]*TempFile, spillPartitions)
				for i := range a.spills {
					tf, err := ctx.CreateTemp()
					if err != nil {
						return err
					}
					a.spills[i] = tf
				}
			}
			if err := a.spills[strPart(a.key)].Append(ctx, t); err != nil {
				return err
			}
			continue
		}
		if err := a.addGroup(t); err != nil {
			return err
		}
		if ctx.WorkMem > 0 && len(a.groups) == ctx.WorkMem {
			// The next row that starts a group spills: from here on the
			// input is full width.
			widen(a.Child)
		}
	}
	if a.spilled {
		for _, tf := range a.spills {
			if err := tf.Finish(ctx); err != nil {
				return err
			}
		}
	}
	a.emit = a.accs.first()
	return a.Child.Close(ctx)
}

// Next implements Operator.
func (a *HashAgg) Next(ctx *Ctx) (catalog.Tuple, bool, error) {
	for {
		if a.emit != noRow {
			acc := a.accs.row(a.emit)
			a.emit = a.accs.following(a.emit)
			if a.Finalize != nil {
				acc = a.Finalize(acc)
			}
			return acc, true, nil
		}
		if !a.spilled || a.part >= spillPartitions {
			return nil, false, nil
		}
		// Aggregate the next spilled partition in memory. Tuples whose
		// groups were resident in phase one were already merged, so a
		// partition contains only non-resident groups.
		a.resetGroups()
		r := a.spills[a.part].NewReader()
		for {
			t, ok, err := r.Next(ctx)
			if err != nil {
				return nil, false, err
			}
			if !ok {
				break
			}
			ctx.ChargeTuples(1)
			folded, err := a.fold(t)
			if err != nil {
				return nil, false, err
			}
			if !folded {
				if err := a.addGroup(t); err != nil {
					return nil, false, err
				}
			}
		}
		if err := ctx.DropTemp(a.spills[a.part]); err != nil {
			return nil, false, err
		}
		a.part++
		a.emit = a.accs.first()
	}
}

// Close implements Operator.
func (a *HashAgg) Close(ctx *Ctx) error {
	a.groups = nil
	a.accs.free()
	a.keys = byteArena{}
	a.emit = noRow
	return nil
}
