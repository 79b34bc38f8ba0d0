package exec

import (
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
	// NewGroup builds the initial accumulator, a new tuple, from a group's
	// first tuple. It may copy string datums of t as they are: HashAgg
	// takes ownership of the accumulator's strings once per group.
	NewGroup func(catalog.Tuple) catalog.Tuple
	// Merge folds a tuple into an accumulator (in place or returning a
	// new accumulator). t is borrowed.
	Merge func(acc catalog.Tuple, t catalog.Tuple) catalog.Tuple
	// Finalize post-processes an accumulator before emission (nil =
	// identity).
	Finalize func(acc catalog.Tuple) catalog.Tuple

	// groups maps a key to its accumulator's index in accs, which is in
	// first-seen order: the emission order, and so the probe order of
	// every operator above, is a function of the input alone (a map walk
	// would vary run to run).
	groups  map[string]int
	accs    []catalog.Tuple
	key     []byte
	idx     int
	spills  []*TempFile
	part    int
	spilled bool
}

// Children implements Operator.
func (a *HashAgg) Children() []Operator { return []Operator{a.Child} }

// Blocking implements Operator: aggregation cannot emit before consuming
// its whole input.
func (a *HashAgg) Blocking() bool { return true }

// Access implements Operator.
func (a *HashAgg) Access() (AccessInfo, bool) { return AccessInfo{}, false }

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
func (a *HashAgg) fold(t catalog.Tuple) bool {
	a.key = a.GroupKey(a.key[:0], t)
	i, ok := a.groups[string(a.key)]
	if ok {
		a.accs[i] = a.Merge(a.accs[i], t)
	}
	return ok
}

// addGroup starts the group of a.key with t. The key and the
// accumulator's strings are copied here, once per group, so that no
// group pins the page frame its first row came from.
func (a *HashAgg) addGroup(t catalog.Tuple) {
	acc := a.NewGroup(t)
	acc.OwnStrings()
	a.groups[string(a.key)] = len(a.accs)
	a.accs = append(a.accs, acc)
}

// Open implements Operator: drains the child, spilling overflow groups.
func (a *HashAgg) Open(ctx *Ctx) error {
	a.groups = make(map[string]int)
	a.accs = nil
	a.idx = 0
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
		if a.fold(t) {
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
		a.addGroup(t)
	}
	if a.spilled {
		for _, tf := range a.spills {
			if err := tf.Finish(ctx); err != nil {
				return err
			}
		}
	}
	return a.Child.Close(ctx)
}

// Next implements Operator.
func (a *HashAgg) Next(ctx *Ctx) (catalog.Tuple, bool, error) {
	for {
		if a.idx < len(a.accs) {
			acc := a.accs[a.idx]
			a.idx++
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
		a.groups = make(map[string]int)
		a.accs = a.accs[:0]
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
			if !a.fold(t) {
				a.addGroup(t)
			}
		}
		if err := ctx.DropTemp(a.spills[a.part]); err != nil {
			return nil, false, err
		}
		a.part++
		a.idx = 0
	}
}

// Close implements Operator.
func (a *HashAgg) Close(ctx *Ctx) error {
	a.groups = nil
	a.accs = nil
	return nil
}
