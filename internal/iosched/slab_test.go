package iosched

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"hstoragedb/internal/device"
	"hstoragedb/internal/dss"
)

// fillBacklog queues n single-block background reads in the shape of
// bank_lsm's compaction backlog: runs of 15 adjacent blocks at scattered
// starts over n/20 LBAs, so each LBA is queued about 20 deep (n = 40,000
// spans about 2,000 LBAs). Nothing is granted until the caller drains.
// It allocates nothing of its own, so allocation counts are the
// scheduler's.
func fillBacklog(s *Scheduler, n int) {
	const run, deep = 15, 20
	span := n / deep
	if span < 2*run {
		span = 2 * run
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := 0; i < n; i++ {
		start := int64(i/run*613) % int64(span-run+1)
		s.enqueueLocked(nil, 0, device.Read, 1<<20+start+int64(i%run), 1,
			dss.ClassCompaction, dss.DefaultTenant)
	}
}

// TestDrainedBacklogReleasesChunks holds the scheduler to giving a deep
// backlog's memory back: after a 40,000-request backlog drains, one
// request chunk and one node chunk are left, both free lists are empty,
// and every chunk it dropped is collectable.
func TestDrainedBacklogReleasesChunks(t *testing.T) {
	g, s, _ := newTestSched(Config{})
	fillBacklog(s, 40000)
	if n := len(s.reqs.chunks); n != 40000/reqChunk+1 {
		t.Fatalf("40000 queued requests fill %d request chunks, want %d", n, 40000/reqChunk+1)
	}
	if n := len(s.nodes.slab.chunks); n < 2 {
		t.Fatalf("40000 queued requests fill %d node chunk, want several", n)
	}
	var reqChunks [][]request
	var nodeChunks [][]treeNode
	var collected atomic.Int32
	for _, c := range s.reqs.chunks[1:] {
		reqChunks = append(reqChunks, c)
		runtime.SetFinalizer(&c[0], func(*request) { collected.Add(1) })
	}
	for _, c := range s.nodes.slab.chunks[1:] {
		nodeChunks = append(nodeChunks, c)
		runtime.SetFinalizer(&c[0], func(*treeNode) { collected.Add(1) })
	}
	want := int32(len(reqChunks) + len(nodeChunks))

	g.Drain()
	if q := s.nFg + s.nBg; q != 0 {
		t.Fatalf("%d requests still queued after Drain", q)
	}
	if n, m := len(s.reqs.chunks), len(s.nodes.slab.chunks); n != 1 || m != 1 {
		t.Fatalf("after Drain: %d request chunks and %d node chunks kept, want 1 and 1", n, m)
	}
	if s.reqs.used != 0 || s.nodes.slab.used != 0 {
		t.Fatalf("after Drain: %d request slots and %d node slots still handed out, want 0",
			s.reqs.used, s.nodes.slab.used)
	}
	if s.freeReq != nil || s.nodes.free != nil {
		t.Fatal("after Drain: a free list survived the rewind")
	}
	for _, b := range s.bands {
		if b.tree.root != nil || b.tree.size != 0 {
			t.Fatalf("band %d: tree holds %d requests after Drain", b.rank, b.tree.size)
		}
	}

	// The dropped chunks still link to one another through stale
	// free-list links. The collector reclaims such garbage cycles, but
	// never runs a finalizer on one, so clear them: each finalizer then
	// answers only whether the scheduler still reaches its chunk.
	for _, c := range reqChunks {
		clear(c)
	}
	for _, c := range nodeChunks {
		clear(c)
	}
	reqChunks, nodeChunks = nil, nil
	for i := 0; i < 50 && collected.Load() < want; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := collected.Load(); got != want {
		t.Fatalf("%d of %d dropped chunks were collected: the scheduler still reaches the rest", got, want)
	}
	runtime.KeepAlive(s)
}

// TestBacklogAllocatesPerChunk pins the cost of a backlog in allocations:
// a warm queue that stays within its first chunk allocates nothing (the
// steady state of OLTP, whose queue never leaves it), and a backlog
// deeper than one chunk allocates per chunk of requests or tree nodes,
// never per request.
func TestBacklogAllocatesPerChunk(t *testing.T) {
	g, s, _ := newTestSched(Config{})
	cycle := func(n int) func() {
		return func() {
			fillBacklog(s, n)
			g.Drain()
		}
	}
	if a := testing.AllocsPerRun(20, cycle(500)); a != 0 {
		t.Errorf("a warm fill-and-drain of 500 requests allocates %.1f times, want 0", a)
	}
	// 5,000 requests take four chunks past the kept one and about
	// four node chunks.
	if a := testing.AllocsPerRun(5, cycle(5000)); a > 16 {
		t.Errorf("a fill-and-drain of 5000 requests allocates %.1f times, want at most 16", a)
	}
}
