package exec

import (
	"hash/fnv"

	"hstoragedb/internal/engine/catalog"
)

// HashAgg groups its input by a string key and folds each group with
// user-supplied functions (the paper's "hash aggregate" blocking
// operator). When the number of resident groups exceeds ctx.WorkMem,
// overflow tuples are partitioned into temporary files and aggregated
// partition by partition — generating the Rule 3 temp-data traffic
// Section 6.3.3 studies via Q18.
type HashAgg struct {
	base
	Child Operator
	// GroupKey extracts the grouping key.
	GroupKey func(catalog.Tuple) string
	// NewGroup builds the initial accumulator from a group's first tuple.
	NewGroup func(catalog.Tuple) catalog.Tuple
	// Merge folds a tuple into an accumulator (in place or returning a
	// new accumulator).
	Merge func(acc catalog.Tuple, t catalog.Tuple) catalog.Tuple
	// Finalize post-processes an accumulator before emission (nil =
	// identity).
	Finalize func(acc catalog.Tuple) catalog.Tuple

	groups map[string]catalog.Tuple
	// order lists the keys of groups in first-seen order: the emission
	// order, and so the probe order of every operator above, is a
	// function of the input alone (a map walk would vary run to run).
	order   []string
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

func strPart(key string) int {
	h := fnv.New32a()
	_, _ = h.Write([]byte(key))
	return int(h.Sum32() % spillPartitions)
}

// Open implements Operator: drains the child, spilling overflow groups.
func (a *HashAgg) Open(ctx *Ctx) error {
	a.groups = make(map[string]catalog.Tuple)
	a.order = nil
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
		k := a.GroupKey(t)
		if acc, ok := a.groups[k]; ok {
			a.groups[k] = a.Merge(acc, t)
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
			if err := a.spills[strPart(k)].Append(ctx, t); err != nil {
				return err
			}
			continue
		}
		a.groups[k] = a.NewGroup(t)
		a.order = append(a.order, k)
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
		if a.idx < len(a.order) {
			acc := a.groups[a.order[a.idx]]
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
		a.groups = make(map[string]catalog.Tuple)
		a.order = a.order[:0]
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
			k := a.GroupKey(t)
			if acc, ok := a.groups[k]; ok {
				a.groups[k] = a.Merge(acc, t)
			} else {
				a.groups[k] = a.NewGroup(t)
				a.order = append(a.order, k)
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
	a.order = nil
	return nil
}
