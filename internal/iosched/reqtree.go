package iosched

// reqTree is a B-tree over the pending requests of one priority band,
// ordered by (vfinish, lba, seq). It is the indexed picker's replacement
// for the seed's linear betterThanAt scan (oracle_test.go): within a
// band the best pick is the elevator-nearest member of the
// minimum-vfinish group, which two seek probes around the device head
// recover in O(log n) through seekGE/seekLT (see band.elevatorBest, which
// also walks the group with ascendGE before the head has a position).
//
// The key orders exactly like the tail of the seed comparator: vfinish
// compared as the raw float64 (0 for class-only mode, so the order
// degenerates to (lba, seq) and every band member is one vfinish group),
// then LBA, then the unique submission seq as the total-order tiebreak.
//
// Nodes come from the scheduler's nodePool, shared by all its band
// trees: a freed node is reused, so steady-state insert/delete churn
// allocates nothing, and a deep backlog's nodes are given back with its
// requests when the queue drains. Degree 8 keeps nodes two cache lines
// of item pointers and the tree two levels deep up to ~3800 requests.
type reqTree struct {
	root *treeNode
	size int
	pool *nodePool
}

// nodePool is a scheduler's store of band-tree nodes: a slab of
// nodeChunk-node chunks and the free list of nodes the trees gave back.
type nodePool struct {
	slab slab[treeNode]
	free *treeNode // freed nodes, chained through children[0]
}

const (
	treeDegree   = 8                // minimum degree t
	treeMaxItems = 2*treeDegree - 1 // per-node item capacity
)

type treeKey struct {
	vfinish float64
	lba     int64
	seq     uint64
}

func reqKey(r *request) treeKey { return treeKey{r.vfinish, r.lba, r.seq} }

func (k treeKey) less(o treeKey) bool {
	if k.vfinish != o.vfinish {
		return k.vfinish < o.vfinish
	}
	if k.lba != o.lba {
		return k.lba < o.lba
	}
	return k.seq < o.seq
}

type treeNode struct {
	n        int
	leaf     bool
	items    [treeMaxItems]*request
	children [treeMaxItems + 1]*treeNode
}

func (t *reqTree) newNode(leaf bool) *treeNode {
	p := t.pool
	nd := p.free
	if nd == nil {
		nd = p.slab.alloc(nodeChunk)
	} else {
		p.free = nd.children[0]
		nd.children[0] = nil
	}
	nd.leaf = leaf
	nd.n = 0
	return nd
}

func (t *reqTree) freeNode(nd *treeNode) {
	p := t.pool
	*nd = treeNode{}
	nd.children[0] = p.free
	p.free = nd
}

func (t *reqTree) insert(r *request) {
	if t.root == nil {
		t.root = t.newNode(true)
	}
	if t.root.n == treeMaxItems {
		nr := t.newNode(false)
		nr.children[0] = t.root
		t.splitChild(nr, 0)
		t.root = nr
	}
	t.insertNonFull(t.root, r)
	t.size++
}

// splitChild splits the full child parent.children[i], lifting its median
// item into the parent. parent must not be full.
func (t *reqTree) splitChild(parent *treeNode, i int) {
	child := parent.children[i]
	right := t.newNode(child.leaf)
	right.n = treeDegree - 1
	copy(right.items[:treeDegree-1], child.items[treeDegree:])
	if !child.leaf {
		copy(right.children[:treeDegree], child.children[treeDegree:])
		for j := treeDegree; j <= treeMaxItems; j++ {
			child.children[j] = nil
		}
	}
	mid := child.items[treeDegree-1]
	for j := treeDegree - 1; j < child.n; j++ {
		child.items[j] = nil
	}
	child.n = treeDegree - 1
	copy(parent.children[i+2:parent.n+2], parent.children[i+1:parent.n+1])
	parent.children[i+1] = right
	copy(parent.items[i+1:parent.n+1], parent.items[i:parent.n])
	parent.items[i] = mid
	parent.n++
}

func (t *reqTree) insertNonFull(nd *treeNode, r *request) {
	k := reqKey(r)
	for {
		i := nd.n
		for i > 0 && k.less(reqKey(nd.items[i-1])) {
			i--
		}
		if nd.leaf {
			copy(nd.items[i+1:nd.n+1], nd.items[i:nd.n])
			nd.items[i] = r
			nd.n++
			return
		}
		if nd.children[i].n == treeMaxItems {
			t.splitChild(nd, i)
			if reqKey(nd.items[i]).less(k) {
				i++
			}
		}
		nd = nd.children[i]
	}
}

// delete removes r (by key) from the tree. Deleting a request that is not
// present is a no-op on the contents but must not be attempted: size
// accounting assumes the key exists.
func (t *reqTree) delete(r *request) {
	if t.root == nil {
		return
	}
	t.deleteKey(t.root, reqKey(r))
	if t.root.n == 0 {
		old := t.root
		if old.leaf {
			t.root = nil
		} else {
			t.root = old.children[0]
		}
		old.children[0] = nil
		t.freeNode(old)
	}
	t.size--
}

// deleteKey is the CLRS single-pass descent: every child stepped into is
// first refilled to >= treeDegree items, so no backtracking is needed.
func (t *reqTree) deleteKey(nd *treeNode, k treeKey) {
	for {
		i := 0
		for i < nd.n && reqKey(nd.items[i]).less(k) {
			i++
		}
		if i < nd.n && !k.less(reqKey(nd.items[i])) {
			if nd.leaf {
				copy(nd.items[i:nd.n-1], nd.items[i+1:nd.n])
				nd.items[nd.n-1] = nil
				nd.n--
				return
			}
			left, right := nd.children[i], nd.children[i+1]
			if left.n >= treeDegree {
				pred := subtreeMax(left)
				nd.items[i] = pred
				nd, k = left, reqKey(pred)
				continue
			}
			if right.n >= treeDegree {
				succ := subtreeMin(right)
				nd.items[i] = succ
				nd, k = right, reqKey(succ)
				continue
			}
			t.mergeChildren(nd, i)
			nd = nd.children[i]
			continue
		}
		if nd.leaf {
			return
		}
		if nd.children[i].n < treeDegree {
			i = t.fill(nd, i)
		}
		nd = nd.children[i]
	}
}

func subtreeMax(nd *treeNode) *request {
	for !nd.leaf {
		nd = nd.children[nd.n]
	}
	return nd.items[nd.n-1]
}

func subtreeMin(nd *treeNode) *request {
	for !nd.leaf {
		nd = nd.children[0]
	}
	return nd.items[0]
}

// fill brings nd.children[i] up to >= treeDegree items by borrowing from
// a sibling or merging, returning the (possibly shifted) child index to
// descend into.
func (t *reqTree) fill(nd *treeNode, i int) int {
	if i > 0 && nd.children[i-1].n >= treeDegree {
		t.borrowFromPrev(nd, i)
		return i
	}
	if i < nd.n && nd.children[i+1].n >= treeDegree {
		t.borrowFromNext(nd, i)
		return i
	}
	if i < nd.n {
		t.mergeChildren(nd, i)
		return i
	}
	t.mergeChildren(nd, i-1)
	return i - 1
}

func (t *reqTree) borrowFromPrev(nd *treeNode, i int) {
	child, sib := nd.children[i], nd.children[i-1]
	copy(child.items[1:child.n+1], child.items[:child.n])
	child.items[0] = nd.items[i-1]
	if !child.leaf {
		copy(child.children[1:child.n+2], child.children[:child.n+1])
		child.children[0] = sib.children[sib.n]
		sib.children[sib.n] = nil
	}
	nd.items[i-1] = sib.items[sib.n-1]
	sib.items[sib.n-1] = nil
	child.n++
	sib.n--
}

func (t *reqTree) borrowFromNext(nd *treeNode, i int) {
	child, sib := nd.children[i], nd.children[i+1]
	child.items[child.n] = nd.items[i]
	if !child.leaf {
		child.children[child.n+1] = sib.children[0]
	}
	nd.items[i] = sib.items[0]
	copy(sib.items[:sib.n-1], sib.items[1:sib.n])
	sib.items[sib.n-1] = nil
	if !sib.leaf {
		copy(sib.children[:sib.n], sib.children[1:sib.n+1])
		sib.children[sib.n] = nil
	}
	child.n++
	sib.n--
}

// mergeChildren folds nd.items[i] and children[i+1] into children[i].
// Both children hold treeDegree-1 items when called, so the merged node
// holds exactly treeMaxItems.
func (t *reqTree) mergeChildren(nd *treeNode, i int) {
	left, right := nd.children[i], nd.children[i+1]
	left.items[left.n] = nd.items[i]
	copy(left.items[left.n+1:left.n+1+right.n], right.items[:right.n])
	if !left.leaf {
		copy(left.children[left.n+1:left.n+2+right.n], right.children[:right.n+1])
	}
	left.n += 1 + right.n
	copy(nd.items[i:nd.n-1], nd.items[i+1:nd.n])
	nd.items[nd.n-1] = nil
	copy(nd.children[i+1:nd.n], nd.children[i+2:nd.n+1])
	nd.children[nd.n] = nil
	nd.n--
	t.freeNode(right)
}

// min returns the smallest item, nil when the tree is empty.
func (t *reqTree) min() *request {
	if t.root == nil || t.size == 0 {
		return nil
	}
	return subtreeMin(t.root)
}

// seekGE returns the smallest item with key >= k, nil if none.
func (t *reqTree) seekGE(k treeKey) *request {
	var best *request
	nd := t.root
	for nd != nil {
		i := 0
		for i < nd.n && reqKey(nd.items[i]).less(k) {
			i++
		}
		if i < nd.n {
			best = nd.items[i]
		}
		if nd.leaf {
			break
		}
		nd = nd.children[i]
	}
	return best
}

// seekLT returns the largest item with key < k, nil if none.
func (t *reqTree) seekLT(k treeKey) *request {
	var best *request
	nd := t.root
	for nd != nil {
		i := 0
		for i < nd.n && reqKey(nd.items[i]).less(k) {
			i++
		}
		if i > 0 {
			best = nd.items[i-1]
		}
		if nd.leaf {
			break
		}
		nd = nd.children[i]
	}
	return best
}

// ascendGE visits items with key >= k in ascending order until fn
// returns false.
func (t *reqTree) ascendGE(k treeKey, fn func(*request) bool) {
	ascendFrom(t.root, k, fn)
}

func ascendFrom(nd *treeNode, k treeKey, fn func(*request) bool) bool {
	if nd == nil {
		return true
	}
	i := 0
	for i < nd.n && reqKey(nd.items[i]).less(k) {
		i++
	}
	for ; i < nd.n; i++ {
		if !nd.leaf && !ascendFrom(nd.children[i], k, fn) {
			return false
		}
		if !fn(nd.items[i]) {
			return false
		}
	}
	if !nd.leaf {
		return ascendFrom(nd.children[nd.n], k, fn)
	}
	return true
}
