package exec

import (
	"sort"

	"hstoragedb/internal/engine/policy"
	"hstoragedb/internal/pagestore"
)

// AssignLevels implements Section 4.2.2's level computation over an
// operator tree:
//
//   - The root is on the highest level; the leaf with the longest
//     distance from the root is on Level 0.
//   - For each blocking operator (hash build, sort), the operators that
//     cannot proceed until it finishes — its ancestors and the subtrees
//     that execute after it — have their levels recalculated as if the
//     blocking operator were at Level 0.
//
// It installs the resulting level on every node via SetLevel and returns
// the number of levels in the tree.
func AssignLevels(root Operator) int {
	depth := map[Operator]int{}
	var order []Operator

	var walk func(op Operator, d int)
	walk = func(op Operator, d int) {
		depth[op] = d
		order = append(order, op)
		for _, c := range op.Children() {
			walk(c, d+1)
		}
	}
	walk(root, 0)

	maxDepth := 0
	for _, d := range depth {
		if d > maxDepth {
			maxDepth = d
		}
	}
	level := map[Operator]int{}
	for op, d := range depth {
		level[op] = maxDepth - d
	}

	// Blocking recalculation, deepest blocking operators first.
	var blocking []Operator
	for _, op := range order {
		if blocks(op) {
			blocking = append(blocking, op)
		}
	}
	// Apply deeper blocking operators first: their recalculation may
	// lower the effective level of blocking operators above them.
	//
	// Affected operators are those "at higher levels or its sibling" —
	// i.e. every node outside the blocking operator's own subtree whose
	// level is at least the blocking level. They are recalculated as if
	// the blocking operator were at Level 0: level -= lb (clamped at 0).
	// Nodes at lower levels (deep inside sibling subtrees, e.g. the
	// supplier/orders index scans under Q9's top-level hash join) are
	// not affected, which is what keeps their priorities distinct.
	sort.SliceStable(blocking, func(i, j int) bool { return depth[blocking[i]] > depth[blocking[j]] })
	for i := range blocking {
		b := blocking[i]
		lb := level[b]
		if lb <= 0 {
			continue
		}
		inSubtree := map[Operator]bool{}
		markSubtree(b, inSubtree)
		for _, op := range order {
			if inSubtree[op] || level[op] < lb {
				continue
			}
			if nl := level[op] - lb; nl >= 0 {
				level[op] = nl
			} else {
				level[op] = 0
			}
		}
	}

	for op, l := range level {
		op.SetLevel(l)
	}
	return maxDepth + 1
}

// blocks and access read the facts an operator declares (see Operator).
func blocks(op Operator) bool {
	b, ok := op.(interface{ Blocking() bool })
	return ok && b.Blocking()
}

func access(op Operator) (AccessInfo, bool) {
	if a, ok := op.(interface{ Access() (AccessInfo, bool) }); ok {
		return a.Access()
	}
	return AccessInfo{}, false
}

func markSubtree(op Operator, set map[Operator]bool) {
	set[op] = true
	for _, c := range op.Children() {
		markSubtree(c, set)
	}
}

// ExtractQueryInfo collects the random-access footprint the query
// registers in the Rule 5 registry: per-object operator levels plus the
// plan's llow/lhigh bounds. Call it after AssignLevels.
func ExtractQueryInfo(root Operator) policy.QueryInfo {
	info := policy.QueryInfo{Levels: map[pagestore.ObjectID][]int{}}
	first := true
	var walk func(op Operator)
	walk = func(op Operator) {
		if ai, ok := access(op); ok && ai.Random {
			lv := op.Level()
			for _, obj := range ai.Objects {
				info.Levels[obj] = append(info.Levels[obj], lv)
			}
			if first || lv < info.LLow {
				info.LLow = lv
			}
			if first || lv > info.LHigh {
				info.LHigh = lv
			}
			first = false
			info.HasRandom = true
		}
		for _, c := range op.Children() {
			walk(c)
		}
	}
	walk(root)
	return info
}
