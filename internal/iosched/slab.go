package iosched

// Queue memory comes from slabs, after Bonwick's slab allocator (USENIX
// Summer 1994): requests and band-tree nodes are served from fixed-size
// chunks, so a deep background backlog costs one allocation per chunk
// instead of one per request, and when the queue drains the chunks go
// back to the collector in one step (rewindLocked). A freed object is
// chained on its owner's intrusive free list (request.next,
// treeNode.children[0]) and reused before the slab hands out a fresh
// slot; the slab itself only bump-allocates.

const (
	// reqChunk is the number of requests one chunk holds (~160 KB):
	// OLTP's queue never leaves the first chunk, bank_lsm's peak
	// background backlog spans about two hundred.
	reqChunk = 1024
	// nodeChunk is the number of band-tree nodes one chunk holds
	// (~34 KB): at ten-odd requests a node, about one request chunk's
	// worth of tree.
	nodeChunk = 128
)

// slab hands out slots of T from chunks of a fixed size.
type slab[T any] struct {
	chunks [][]T
	used   int // slots handed out of the last chunk
}

// alloc returns the next never-used slot, adding a chunk of size slots
// when the last one is full. Slots start zeroed: a fresh chunk is, and
// rewind zeroes the one it keeps.
func (sl *slab[T]) alloc(size int) *T {
	if len(sl.chunks) == 0 || sl.used == size {
		sl.chunks = append(sl.chunks, make([]T, size))
		sl.used = 0
	}
	p := &sl.chunks[len(sl.chunks)-1][sl.used]
	sl.used++
	return p
}

// rewind drops every chunk but the first and zeroes that one, so alloc
// starts over at its first slot. The zeroing matters: a free-list link
// left in the kept chunk would keep a dropped chunk reachable. Every
// slot must be free and the owner's free list discarded with it.
func (sl *slab[T]) rewind() {
	if len(sl.chunks) == 0 {
		return
	}
	clear(sl.chunks[1:])
	sl.chunks = sl.chunks[:1]
	clear(sl.chunks[0])
	sl.used = 0
}

// rewindLocked gives a drained backlog's memory back: once a grant
// leaves the queue empty, and the backlog had spilled past the first
// request or node chunk, both slabs rewind and both free lists go. Every
// band tree is empty then, and no index holds a request. Called at the
// end of grantLocked; caller holds s.mu.
func (s *Scheduler) rewindLocked() {
	if s.nFg+s.nBg != 0 || len(s.reqs.chunks) <= 1 && len(s.nodes.slab.chunks) <= 1 {
		return
	}
	s.reqs.rewind()
	s.freeReq = nil
	s.nodes.slab.rewind()
	s.nodes.free = nil
}
