// Package bufferpool implements the DBMS buffer pool of the hStorage-DB
// prototype. As in the paper's augmented PostgreSQL, every fetch carries
// the semantic information collected from the query plan (a policy.Tag),
// which the pool hands through to the storage manager on misses and on
// dirty write-back, instead of stripping it away.
//
// The pool is a write-back LRU cache of pages shared by all concurrently
// running queries. Dirty-page write-back goes through the storage
// manager's background path, which tags the request with its class and
// marks it Background, so the device I/O scheduler serves it below every
// foreground class instead of letting a flush delay a commit.
//
// # Transactions
//
// Mutating transactions register per-stream hooks with BindTxn, keyed by
// the session clock that accompanies every Get/Put. On a bound stream,
// for table and index pages (the only transactional content):
//
//   - the Acquire hook runs before the frame operation (no pool latch
//     held, so it may block): the transaction layer takes its page locks
//     here, and a lock-manager deadlock surfaces as an error from
//     Get/Put;
//   - the transaction's first Put of a page records the first touch:
//     the page's content (the frame's, or with no frame the stored
//     page) becomes its pending version (mvcc.go), which is at once the
//     transaction's undo image, the base its redo is encoded against and
//     what snapshot readers see; the frame gains one pin; and the page
//     joins the transaction's first-touch list.
//
// The page's exclusive lock is held from the first touch until the
// version is sealed, so a transaction's pending version is always the
// newest on its chain. Touched walks the list for the log, CommitVersions
// seals it, Release drops the pins after the commit force, and Rollback
// restores the pre-images on abort. A frame with any pins is never
// evicted or flushed (no-steal).
//
// Page images are immutable, with one exception: until the seal, the
// image a transaction installed since its first touch of a page is
// reachable by nobody but its owner, which may edit it in place before
// it Puts it back (Owned). Versions, sealed frames and stored pages are
// never written into.
//
// Frames being written back are latched (entry.flushing): they stay
// visible in the table during the I/O so concurrent readers never fetch
// a stale copy from the storage system, and a Put that re-dirties the
// frame mid-flush is detected by a version check and the frame is kept.
package bufferpool

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"hstoragedb/internal/engine/policy"
	"hstoragedb/internal/engine/storagemgr"
	"hstoragedb/internal/obs"
	"hstoragedb/internal/pagestore"
	"hstoragedb/internal/simclock"
)

// key identifies one buffered page.
type key struct {
	obj  pagestore.ObjectID
	page int64
}

// entry is one buffer pool frame.
type entry struct {
	key     key
	data    []byte
	dirty   bool
	content policy.ContentType // needed to classify the write-back

	// version counts content installs, so a write-back that ran without
	// the pool latch can tell whether the frame was re-dirtied under it.
	version int64

	// flushing latches the frame while its content is being written
	// back: it stays visible to readers but is not a victim candidate.
	flushing bool

	// verLSN is the commit LSN the frame's content was committed at (0
	// when unknown: freshly loaded from disk, or pre-MVCC content).
	// uncommitted marks content installed by a still-running transaction;
	// such a frame is never served to snapshot readers — the owner's
	// pending chain version covers them.
	verLSN      int64
	uncommitted bool

	// pins counts active transactions holding the frame under the
	// no-steal policy, one per first touch: a pinned frame is never
	// evicted or flushed, so an uncommitted page can never reach the
	// storage system before its log records are durable.
	pins int

	prev, next *entry
}

// AcquireFunc takes the transaction's page lock before a frame access;
// write selects exclusive mode. It is called without the pool mutex, may
// block, and its error (e.g. a lock-manager deadlock) aborts the access.
type AcquireFunc func(tag policy.Tag, page int64, write bool) error

// TxnHooks bind one active transaction to the pool: its identity, its
// lock acquisition, and its first-touch list.
type TxnHooks struct {
	// ID is the transaction identifier owning the pending versions.
	ID int64
	// Acquire, when non-nil, is invoked before every Get (read) and Put
	// (write) of a table or index page on the bound stream.
	Acquire AcquireFunc

	// touched lists the frames the transaction first-touched, in order.
	// Only the transaction's own stream appends to it (under p.mu).
	touched []*entry
}

// Stats are cumulative buffer pool counters.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	WriteBack int64
}

// Pool is the buffer pool. All methods are safe for concurrent use.
type Pool struct {
	mgr *storagemgr.Manager
	cap int

	mu    sync.Mutex
	table map[key]*entry
	head  entry // sentinel of the LRU list, head.next = MRU
	stats Stats
	// nflushing counts frames latched mid-write-back. They stay visible
	// in the table (readers keep hitting the in-memory copy) but do not
	// count against capacity, so a concurrent stream's makeRoom does not
	// cascade extra evictions while a victim's I/O is in flight.
	nflushing int

	// versions holds the per-page version chains of the MVCC snapshot
	// store (mvcc.go); verBytes is the retained payload total. Guarded
	// by mu.
	versions map[key][]pageVersion
	verBytes int64

	// binds holds each session stream's one binding: a mutating
	// transaction's hooks or a read-only transaction's snapshot LSN.
	bindMu sync.RWMutex
	binds  map[*simclock.Clock]binding

	// Registry instruments and tracer, nil (inert) until Use attaches a
	// set.
	tracer     *obs.Tracer
	mHit       *obs.Counter
	mMiss      *obs.Counter
	mEvict     *obs.Counter
	mWB        *obs.Counter
	mSnapReads *obs.Counter
	mVersions  *obs.Gauge
	mVerBytes  *obs.Gauge
	mSnaps     *obs.Gauge
}

// New creates a pool with capacity `frames` pages over the given storage
// manager.
func New(mgr *storagemgr.Manager, frames int) *Pool {
	if frames < 1 {
		frames = 1
	}
	p := &Pool{
		mgr:      mgr,
		cap:      frames,
		table:    make(map[key]*entry, frames),
		versions: make(map[key][]pageVersion),
		binds:    make(map[*simclock.Clock]binding),
	}
	p.head.prev = &p.head
	p.head.next = &p.head
	return p
}

// Manager exposes the storage manager beneath the pool.
func (p *Pool) Manager() *storagemgr.Manager { return p.mgr }

// Use attaches an observability set: the pool registers its counters
// (`bufferpool.hit`, `bufferpool.miss`, `bufferpool.evictions`,
// `bufferpool.writeback`, `bufferpool.snapshot.reads`), the version
// store gauges (`bufferpool.versions`, `bufferpool.version.bytes`,
// `bufferpool.snapshots`), and records a `bufferpool`/`miss.fill` span
// for every sampled miss fill. A nil set detaches.
func (p *Pool) Use(set *obs.Set) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.tracer = set.Trace()
	reg := set.Registry()
	p.mHit = reg.Counter("bufferpool.hit")
	p.mMiss = reg.Counter("bufferpool.miss")
	p.mEvict = reg.Counter("bufferpool.evictions")
	p.mWB = reg.Counter("bufferpool.writeback")
	p.mSnapReads = reg.Counter("bufferpool.snapshot.reads")
	p.mVersions = reg.Gauge("bufferpool.versions")
	p.mVerBytes = reg.Gauge("bufferpool.version.bytes")
	p.mSnaps = reg.Gauge("bufferpool.snapshots")
}

// binding is what a session stream is bound to: a mutating
// transaction's hooks, or, with txn nil, the snapshot LSN of a read-only
// transaction (BindSnapshot).
type binding struct {
	txn  *TxnHooks
	snap int64
}

// BindTxn binds a mutating transaction's hooks (non-nil) to a session
// stream: every Get/Put of a table or index page carrying clk runs the
// hooks until UnbindTxn. A stream has one binding, so it runs at most one
// transaction at a time; concurrent transactions live on distinct
// streams, each with its own first-touch list.
func (p *Pool) BindTxn(clk *simclock.Clock, h *TxnHooks) {
	p.bindMu.Lock()
	p.binds[clk] = binding{txn: h}
	p.bindMu.Unlock()
}

// UnbindTxn removes the stream's binding (commit/abort path; a
// snapshot's too, for UnbindSnapshot).
func (p *Pool) UnbindTxn(clk *simclock.Clock) {
	p.bindMu.Lock()
	delete(p.binds, clk)
	p.bindMu.Unlock()
}

// UnbindAll removes every transaction and snapshot binding (crash path).
func (p *Pool) UnbindAll() {
	p.bindMu.Lock()
	clear(p.binds)
	p.bindMu.Unlock()
	p.mSnaps.Set(0)
}

// bindingFor returns the stream's binding, if it has one: one read lock
// per versioned access.
func (p *Pool) bindingFor(clk *simclock.Clock) (binding, bool) {
	p.bindMu.RLock()
	b, ok := p.binds[clk]
	p.bindMu.RUnlock()
	return b, ok
}

func (p *Pool) pushFront(e *entry) {
	e.prev = &p.head
	e.next = p.head.next
	p.head.next.prev = e
	p.head.next = e
}

func (p *Pool) unlink(e *entry) {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
}

func (p *Pool) touch(e *entry) {
	p.unlink(e)
	p.pushFront(e)
}

// evictOne writes back the least recently used unpinned page if dirty and
// frees its frame. It reports whether it made progress: pinned frames
// (dirtied by an uncommitted transaction) and frames mid-flush are
// skipped, and when every frame is pinned the pool temporarily exceeds
// its capacity rather than steal an uncommitted page. The frame stays in
// the table, latched, while its content is written back (the mutex is
// released around the I/O), so concurrent readers keep hitting the
// in-memory copy instead of racing the write-back to the storage system;
// if the frame was re-dirtied or pinned under the latch it is kept.
// Caller holds p.mu.
func (p *Pool) evictOne(clk *simclock.Clock) (bool, error) {
	lru := p.head.prev
	for lru != &p.head && (lru.pins > 0 || lru.flushing) {
		lru = lru.prev
	}
	if lru == &p.head {
		return false, nil
	}
	if !lru.dirty {
		p.unlink(lru)
		delete(p.table, lru.key)
		p.stats.Evictions++
		p.mEvict.Inc()
		return true, nil
	}
	p.stats.WriteBack++
	p.mWB.Inc()
	lru.flushing = true
	p.nflushing++
	tag := policy.Tag{Object: lru.key.obj, Content: lru.content}
	data := lru.data
	version := lru.version
	pageNo := lru.key.page
	p.mu.Unlock()
	// Dirty pages are flushed by the background writer: the flush occupies
	// the storage system but the query does not wait for it. A write-back
	// can race the deletion of its object (another stream just dropped the
	// temp file this frame belongs to); the data is dead, so the write is
	// simply discarded.
	err := p.mgr.WritePageBackground(clk, tag, pageNo, data)
	if errors.Is(err, pagestore.ErrUnknownObject) {
		err = nil
	}
	p.mu.Lock()
	lru.flushing = false
	p.nflushing--
	if _, still := p.table[lru.key]; !still {
		// Invalidated under the latch (temp file dropped): already gone.
		return true, err
	}
	if lru.version != version || lru.pins > 0 {
		// Re-dirtied or pinned while the stale copy was in flight: the
		// frame must stay. Report progress so the caller retries with
		// another victim.
		return true, err
	}
	lru.dirty = false
	p.unlink(lru)
	delete(p.table, lru.key)
	p.stats.Evictions++
	p.mEvict.Inc()
	return true, err
}

// makeRoom evicts until a frame is free or only pinned frames remain.
// Frames latched mid-write-back do not count: their eviction is already
// under way. Caller holds p.mu.
func (p *Pool) makeRoom(clk *simclock.Clock) error {
	for len(p.table)-p.nflushing >= p.cap {
		ok, err := p.evictOne(clk)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
	}
	return nil
}

// Get returns the content of (tag.Object, page), fetching it through the
// storage manager on a miss. The returned slice is the pool's frame, and
// on the extent store the stored page itself. Frames and stored pages are
// immutable: Put and WritePage replace a page's slice, nothing writes
// into one, and callers must not either. So heap and index code decodes
// in place (tuples and node entries are read by offset in the frame), and
// a slice kept across later pool calls stays valid — as the image the
// page had at this Get, not as the page's current content. The one
// exception is a frame the stream's own transaction installed since its
// first touch of the page: while Owned says so, the transaction may edit
// it in place and Put it back, so a slice it kept of that frame follows
// its own edits. On a stream with a bound transaction, the
// transaction's Acquire hook runs first (shared mode) and its error —
// e.g. a deadlock — is returned unchanged; on a snapshot-bound stream, a
// table or index page resolves as of the snapshot (mvcc.go) and no hook
// runs.
//
// Each pass checks the version chain (snapshot streams only), then the
// frame, and otherwise reads the page outside the latch and checks again.
// A frame found before the read counts a hit, each read a miss.
func (p *Pool) Get(clk *simclock.Clock, tag policy.Tag, page int64) ([]byte, error) {
	snapshot, snap := false, int64(0)
	if versioned(tag.Content) {
		switch b, ok := p.bindingFor(clk); {
		case !ok:
		case b.txn == nil:
			snapshot, snap = true, b.snap
			p.mSnapReads.Inc()
		case b.txn.Acquire != nil:
			if err := b.txn.Acquire(tag, page, false); err != nil {
				return nil, err
			}
		}
	}
	k := key{obj: tag.Object, page: page}
	var read []byte // the page as read from storage, once a pass read it
	p.mu.Lock()
	for {
		if snapshot {
			if data, ok := p.chainResolveLocked(k, snap); ok {
				p.mu.Unlock()
				return data, nil
			}
		}
		if e, ok := p.table[k]; ok {
			if snapshot && e.uncommitted {
				// An uncommitted frame is always covered by its owner's
				// pending chain version, which the resolve above serves.
				p.mu.Unlock()
				return nil, fmt.Errorf("bufferpool: snapshot %d: page %d/%d has uncommitted frame and no covering version", snap, tag.Object, page)
			}
			p.touch(e)
			if read == nil {
				p.stats.Hits++
				p.mHit.Inc()
			}
			data := e.data
			p.mu.Unlock()
			return data, nil
		}
		if read != nil {
			e := &entry{key: k, data: read, content: tag.Content}
			p.table[k] = e
			p.pushFront(e)
			p.mu.Unlock()
			return read, nil
		}
		p.stats.Misses++
		p.mMiss.Inc()
		tr := p.tracer
		if err := p.makeRoom(clk); err != nil {
			p.mu.Unlock()
			return nil, err
		}
		p.mu.Unlock()

		fillStart := clk.Now()
		data, err := p.mgr.ReadPage(clk, tag, page)
		if err != nil {
			return nil, err
		}
		if tr.SampleRequest() {
			tr.Span("bufferpool", "miss.fill", clk.ID(), fillStart, clk.Now()-fillStart,
				map[string]any{"obj": int64(tag.Object), "page": page})
		}
		read = data
		p.mu.Lock()
	}
}

// Put stores new content for (tag.Object, page) and marks the frame
// dirty. The data is installed by reference; the pool owns it afterwards
// and the caller must not write into it again (see Get), unless Owned
// reports it as the bound transaction's own image; the store keeps it
// too on write-back if it was built in pagestore.NewPage.
// On a stream with a bound transaction, a table or index page's Acquire
// hook runs first (exclusive mode), and the transaction's first Put of
// the page records its first touch.
func (p *Pool) Put(clk *simclock.Clock, tag policy.Tag, page int64, data []byte) error {
	var h *TxnHooks
	if versioned(tag.Content) {
		switch b, ok := p.bindingFor(clk); {
		case !ok:
		case b.txn == nil:
			return fmt.Errorf("bufferpool: snapshot %d: write to page %d/%d on a read-only snapshot stream", b.snap, tag.Object, page)
		default:
			h = b.txn
			if h.Acquire != nil {
				if err := h.Acquire(tag, page, true); err != nil {
					return err
				}
			}
		}
	}
	k := key{obj: tag.Object, page: page}
	p.mu.Lock()
	e, had := p.table[k]
	if !had {
		if err := p.makeRoom(clk); err != nil {
			p.mu.Unlock()
			return err
		}
		// makeRoom drops the latch around a dirty write-back, and a
		// concurrent Get may have installed the page meanwhile: that frame
		// is the one to write, or it would be orphaned on the LRU list.
		if e, had = p.table[k]; !had {
			e = &entry{key: k}
		}
	}
	// The first touch comes before a new frame is installed, so a store
	// error leaves the pool as it was.
	if h != nil {
		if err := p.firstTouchLocked(h, e, had); err != nil {
			p.mu.Unlock()
			return err
		}
	}
	if had {
		p.touch(e)
	} else {
		p.table[k] = e
		p.pushFront(e)
	}
	e.data = data
	e.dirty = true
	e.version++
	e.content = tag.Content
	p.mu.Unlock()
	return nil
}

// FlushAll writes back every dirty unpinned frame (end-of-stream
// checkpoint). Pinned frames belong to uncommitted transactions and stay
// in memory: their durability is the WAL's job. A frame re-dirtied while
// its snapshot was being written keeps its dirty bit.
func (p *Pool) FlushAll(clk *simclock.Clock) error {
	type snap struct {
		e       *entry
		data    []byte
		version int64
	}
	p.mu.Lock()
	dirty := make([]snap, 0)
	for _, e := range p.table {
		if e.dirty && e.pins == 0 {
			dirty = append(dirty, snap{e: e, data: e.data, version: e.version})
		}
	}
	p.mu.Unlock()
	// Write back in (object, page) order: map order would make the
	// device's I/O order, and with it every simulated time downstream,
	// differ from run to run.
	sort.Slice(dirty, func(i, j int) bool {
		a, b := dirty[i].e.key, dirty[j].e.key
		if a.obj != b.obj {
			return a.obj < b.obj
		}
		return a.page < b.page
	})
	for _, s := range dirty {
		e := s.e
		tag := policy.Tag{Object: e.key.obj, Content: e.content}
		if err := p.mgr.WritePage(clk, tag, e.key.page, s.data); err != nil {
			if errors.Is(err, pagestore.ErrUnknownObject) {
				continue // the object was dropped while we flushed
			}
			return err
		}
		p.mu.Lock()
		if e.version == s.version {
			e.dirty = false
		}
		p.stats.WriteBack++
		p.mWB.Inc()
		p.mu.Unlock()
	}
	return nil
}

// Invalidate drops every frame of an object without write-back. Used when
// a temporary file is deleted: its dirty pages are useless by definition.
func (p *Pool) Invalidate(obj pagestore.ObjectID) {
	p.mu.Lock()
	for k, e := range p.table {
		if k.obj == obj {
			p.unlink(e)
			delete(p.table, k)
		}
	}
	p.mu.Unlock()
}

// PinnedFrames reports how many frames currently hold transaction pins.
// Tests use it to assert the no-steal bookkeeping drains to zero.
func (p *Pool) PinnedFrames() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, e := range p.table {
		if e.pins > 0 {
			n++
		}
	}
	return n
}

// Stats returns a snapshot of the counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// ResetStats clears the counters.
func (p *Pool) ResetStats() {
	p.mu.Lock()
	p.stats = Stats{}
	p.mu.Unlock()
}

// Len reports the number of resident pages.
func (p *Pool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.table)
}

// Capacity reports the pool size in frames.
func (p *Pool) Capacity() int { return p.cap }

// DropAll empties the pool without write-back, version chains included
// (they are volatile by design: recovery rebuilds the committed
// single-version state from the WAL). Tests use it to force cold caches
// between runs; the crash path uses it to drop volatile state.
func (p *Pool) DropAll() {
	p.mu.Lock()
	p.table = make(map[key]*entry, p.cap)
	p.head.prev = &p.head
	p.head.next = &p.head
	p.versions = make(map[key][]pageVersion)
	p.verBytes = 0
	p.mu.Unlock()
	p.mVersions.Set(0)
	p.mVerBytes.Set(0)
}
