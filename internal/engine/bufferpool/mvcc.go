// Version store: copy-on-write page snapshots for MVCC snapshot reads.
//
// The buffer pool keeps, per page, a chain of superseded committed
// images. A mutating transaction's first touch of a page pushes the
// frame's committed content onto the page's chain as a *pending*
// version, the transaction's one record of that page: its undo image,
// the base its redo is encoded against, and (with the frame pin) its
// no-steal hold. Commit seals it with the transaction's commit LSN,
// abort restores the frame from it and removes it. A snapshot reader
// bound with BindSnapshot resolves every Get of transactional content
// against its snapshot LSN S:
//
//   - the newest chain version with created <= S decides: if its
//     superseded LSN is still open (pending) or past S, that version IS
//     the content at S;
//   - otherwise a committed version at or below S superseded it, which
//     means the page's *current* committed content is the visible one:
//     the frame (when not uncommitted) or the disk image.
//
// The chain, not the frame, is authoritative: a frame may be evicted
// after a commit and reloaded from disk with an unknown version LSN, and
// a frame holding uncommitted content must never be served to a reader.
//
// A pending version may carry nil data: the page had no frame when the
// writer first touched it, so the committed image it guards is the one
// on disk. Every write-back materializes such guards first (reads the
// old disk image into the chain before overwriting it), so a nil guard
// always denotes the *current* disk content.
//
// Garbage collection: a sealed version is prunable once no active
// snapshot falls inside its [created, superseded) validity window and
// its superseded LSN is at or below the published commit watermark (a
// future snapshot always begins at or above the watermark, so it can
// only need versions superseded after it). Version chains are volatile:
// they die with the pool on crash, and recovery rebuilds the committed
// single-version state from the WAL alone.
package bufferpool

import (
	"errors"
	"fmt"
	"sort"

	"hstoragedb/internal/engine/policy"
	"hstoragedb/internal/pagestore"
	"hstoragedb/internal/simclock"
)

// pageVersion is one entry of a page's version chain: a committed image
// superseded (or about to be superseded) by a later commit.
type pageVersion struct {
	created    int64 // commit LSN that produced this content (0 = base image)
	superseded int64 // commit LSN that replaced it; 0 while the owner runs
	owner      int64 // transaction holding the pending entry (0 once sealed)
	absent     bool  // the page did not exist at this version
	preDirty   bool  // pending: the frame was dirty at the first touch
	data       []byte
}

// VersionStats is a snapshot of the version store.
type VersionStats struct {
	// Versions counts chain entries (pending included); Bytes their
	// retained page payload.
	Versions int
	Bytes    int64
	// Snapshots counts bound snapshot readers; OldestSnapshot is the
	// minimum bound snapshot LSN (0 with none).
	Snapshots      int
	OldestSnapshot int64
}

// zeroPage is the content of a page that does not exist at a snapshot:
// unwritten pages read as zeroes everywhere else in the system too.
var zeroPage = make([]byte, pagestore.PageSize)

// versioned reports whether a content type is resolved against
// snapshots: only transactional data is — temporary spills are
// stream-private and WAL pages manage their own durability.
func versioned(c policy.ContentType) bool {
	return c == policy.Table || c == policy.Index
}

// BindSnapshot binds a snapshot LSN to a session stream, replacing any
// binding it had: every Get of a table or index page carrying clk
// resolves as of that LSN, without running any transaction's hooks,
// until UnbindSnapshot. A snapshot-bound stream's Put of such a page
// fails.
//
// The LSN is what read returns — the log's commit watermark — read
// inside the critical section that installs the binding. A pruner
// therefore either finds the binding in activeSnaps, or took that list
// (and before it its own watermark) before read ran: the watermark only
// rises, so the snapshot begins at or above everything that pruner may
// drop. Read first and bound second, a commit and a prune in between
// would take away the version the snapshot is about to need.
func (p *Pool) BindSnapshot(clk *simclock.Clock, read func() int64) int64 {
	p.bindMu.Lock()
	lsn := read()
	p.binds[clk] = binding{snap: lsn}
	p.bindMu.Unlock()
	p.mSnaps.Set(int64(len(p.activeSnaps())))
	return lsn
}

// UnbindSnapshot releases the stream's snapshot binding (end of the
// read-only transaction). Unknown streams are ignored (crash path).
func (p *Pool) UnbindSnapshot(clk *simclock.Clock) {
	p.UnbindTxn(clk)
	p.mSnaps.Set(int64(len(p.activeSnaps())))
}

// activeSnaps returns the bound snapshot LSNs, sorted ascending. Called
// without p.mu held (bindMu nests inside p.mu nowhere, so gathering the
// snapshot set first keeps the lock order single-level).
func (p *Pool) activeSnaps() []int64 {
	var out []int64
	p.bindMu.RLock()
	for _, b := range p.binds {
		if b.txn == nil {
			out = append(out, b.snap)
		}
	}
	p.bindMu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// firstTouchLocked records h's first touch of frame e's page, before a
// Put installs over it: the frame's content becomes the page's pending
// version, the frame gains a pin, and the page joins h's first-touch
// list. A page whose newest version h already owns was touched before.
// had reports whether the frame existed before this Put; without one,
// either the page does not exist yet (an append extends the object only
// after this Put), so snapshot readers see zeroes, or its committed
// content lives on disk: a nil guard defers to the disk image. The
// pending version's created LSN is the frame's commit stamp, raised to
// the chain horizon (a frame evicted and reloaded since loses the stamp).
// Caller holds p.mu.
func (p *Pool) firstTouchLocked(h *TxnHooks, e *entry, had bool) {
	chain := p.versions[e.key]
	n := len(chain)
	if n > 0 && chain[n-1].owner == h.ID {
		return
	}
	v := pageVersion{owner: h.ID}
	if had {
		v.created, v.data, v.preDirty = e.verLSN, e.data, e.dirty
	} else {
		v.absent = e.key.page >= p.mgr.Store().Pages(e.key.obj)
	}
	if n > 0 && chain[n-1].superseded > v.created {
		v.created = chain[n-1].superseded
	}
	p.versions[e.key] = append(chain, v)
	p.verBytes += int64(len(v.data))
	p.mVersions.Add(1)
	p.mVerBytes.Add(int64(len(v.data)))
	e.pins++
	e.uncommitted = true
	h.touched = append(h.touched, e)
}

// pendingLocked returns h's pending version of frame e's page: the
// newest on its chain, since the page lock is held from the first touch
// until the seal. It returns nil when the record is gone, because a
// crash dropped the pool (chains and frames together) under the running
// transaction; while the record stands, the pin keeps e in the pool.
// The pointer is valid only while p.mu is held: pruning compacts chains
// in place.
func (p *Pool) pendingLocked(h *TxnHooks, e *entry) *pageVersion {
	chain := p.versions[e.key]
	if n := len(chain); n > 0 && chain[n-1].owner == h.ID {
		return &chain[n-1]
	}
	return nil
}

// Touched calls fn for every page the transaction bound by h has
// first-touched, in first-touch order, with the page's pre-image (nil:
// the page had no frame) and its current frame content, and stops at
// fn's first error. fn runs without the pool latch, so it may do I/O.
// Records that are gone (see pendingLocked) are skipped.
func (p *Pool) Touched(h *TxnHooks, fn func(obj pagestore.ObjectID, page int64, pre, post []byte) error) error {
	for _, e := range h.touched {
		p.mu.Lock()
		var pre, post []byte
		v := p.pendingLocked(h, e)
		if v != nil {
			pre, post = v.data, e.data
		}
		p.mu.Unlock()
		if v == nil {
			continue
		}
		if err := fn(e.key.obj, e.key.page, pre, post); err != nil {
			return err
		}
	}
	return nil
}

// CommitVersions seals h's pending versions with its commit LSN and
// stamps the frames as committed at that LSN. It must be called while
// the commit order is still pinned (the transaction layer holds its
// commit-sequence mutex), so chain seal order matches commit-LSN order:
// otherwise a snapshot taken between a later commit record and this
// seal could miss a version it is entitled to. watermark is the current
// published commit watermark, used to opportunistically prune the
// just-sealed chains; it must have been read before the call, i.e.
// before activeSnaps below (BindSnapshot relies on that order). The
// pins stay until Release.
func (p *Pool) CommitVersions(h *TxnHooks, commitLSN, watermark int64) {
	if len(h.touched) == 0 {
		return
	}
	snaps := p.activeSnaps()
	p.mu.Lock()
	for _, e := range h.touched {
		v := p.pendingLocked(h, e)
		if v == nil {
			continue
		}
		v.superseded, v.owner = commitLSN, 0
		e.verLSN = commitLSN
		e.uncommitted = false
		p.pruneChainLocked(e.key, watermark, snaps)
	}
	p.mu.Unlock()
}

// Release drops the pins of h's first touches and empties its list
// (commit path, once the log records are durable: the frames stay dirty
// and are flushed lazily). A frame a crash dropped is out of the pool,
// so its count no longer matters; a new frame of the page is another
// entry and keeps its own pins.
func (p *Pool) Release(h *TxnHooks) {
	p.mu.Lock()
	for _, e := range h.touched {
		e.pins--
	}
	p.mu.Unlock()
	h.touched = h.touched[:0]
}

// Rollback rewinds every page h first-touched to its pre-image, newest
// first, dropping the pending versions and the pins, and empties the
// list (abort path). A page that had no frame before the transaction is
// dropped without write-back, so the storage system never sees the
// aborted content. Records that are gone (see pendingLocked) are skipped.
func (p *Pool) Rollback(h *TxnHooks) {
	p.mu.Lock()
	for i := len(h.touched) - 1; i >= 0; i-- {
		e := h.touched[i]
		v := p.pendingLocked(h, e)
		if v == nil {
			continue
		}
		pre, preDirty, created := v.data, v.preDirty, v.created
		chain := p.versions[e.key]
		if len(chain) == 1 {
			delete(p.versions, e.key)
		} else {
			p.versions[e.key] = chain[:len(chain)-1]
		}
		p.verBytes -= int64(len(pre))
		p.mVersions.Add(-1)
		p.mVerBytes.Add(-int64(len(pre)))
		e.pins--
		if pre == nil {
			p.unlink(e)
			delete(p.table, e.key)
			continue
		}
		e.data = pre
		e.dirty = preDirty
		e.version++
		e.verLSN = created
		e.uncommitted = false
	}
	p.mu.Unlock()
	h.touched = h.touched[:0]
}

// PruneVersions sweeps every chain, dropping versions no active snapshot
// needs and no future snapshot can need (their superseded LSN is at or
// below the commit watermark). Called when a snapshot ends and at
// checkpoints. watermark is read before the call, so before activeSnaps
// here: BindSnapshot relies on that order.
func (p *Pool) PruneVersions(watermark int64) {
	snaps := p.activeSnaps()
	p.mu.Lock()
	for k := range p.versions {
		p.pruneChainLocked(k, watermark, snaps)
	}
	p.mu.Unlock()
}

// pruneChainLocked drops the prunable versions of one page. A version is
// kept while pending, while a future snapshot could still begin inside
// its window (superseded > watermark), or while an active snapshot falls
// in [created, superseded). Caller holds p.mu; snaps is sorted.
func (p *Pool) pruneChainLocked(k key, watermark int64, snaps []int64) {
	chain := p.versions[k]
	if len(chain) == 0 {
		return
	}
	j := 0
	for _, v := range chain {
		if v.superseded == 0 || v.superseded > watermark || snapInWindow(snaps, v.created, v.superseded) {
			chain[j] = v
			j++
			continue
		}
		p.verBytes -= int64(len(v.data))
		p.mVersions.Add(-1)
		p.mVerBytes.Add(-int64(len(v.data)))
	}
	if j == 0 {
		delete(p.versions, k)
		return
	}
	p.versions[k] = chain[:j]
}

// snapInWindow reports whether a sorted snapshot list has an entry in
// [lo, hi).
func snapInWindow(snaps []int64, lo, hi int64) bool {
	i := sort.Search(len(snaps), func(i int) bool { return snaps[i] >= lo })
	return i < len(snaps) && snaps[i] < hi
}

// chainResolveLocked finds the version visible at snapshot LSN s, if the
// chain is authoritative for it: the newest version with created <= s
// whose superseded LSN is open or past s. ok=false means the page's
// current committed content is the visible one (possibly because the
// chain is empty). A true result with nil data means the visible image
// is the current disk content (a guard whose frame had been evicted).
// Caller holds p.mu.
func (p *Pool) chainResolveLocked(k key, s int64) (data []byte, ok bool) {
	chain := p.versions[k]
	for i := len(chain) - 1; i >= 0; i-- {
		if chain[i].created > s {
			continue
		}
		if chain[i].superseded == 0 || chain[i].superseded > s {
			if chain[i].absent {
				return zeroPage, true
			}
			return chain[i].data, true
		}
		// A committed version at or below s superseded this one: the
		// current content is visible.
		return nil, false
	}
	return nil, false
}

// getSnapshot serves a Get on a snapshot-bound stream: the version chain
// decides first; when the current committed content is the visible
// version, the frame (or the disk image) serves it like an ordinary Get.
func (p *Pool) getSnapshot(clk *simclock.Clock, tag policy.Tag, page int64, s int64) ([]byte, error) {
	p.mSnapReads.Inc()
	k := key{obj: tag.Object, page: page}
	p.mu.Lock()
	if data, ok := p.chainResolveLocked(k, s); ok {
		p.mu.Unlock()
		if data == nil {
			// Nil guard: the committed image lives on disk (and stays
			// there — write-backs materialize guards before overwriting).
			return p.readSnapshotMiss(clk, tag, page, s, false)
		}
		return data, nil
	}
	if e, ok := p.table[k]; ok {
		if !e.uncommitted {
			p.touch(e)
			p.stats.Hits++
			p.mHit.Inc()
			data := e.data
			p.mu.Unlock()
			return data, nil
		}
		// An uncommitted frame is always guarded by its owner's pending
		// chain version, which the resolve above would have served.
		p.mu.Unlock()
		return nil, fmt.Errorf("bufferpool: snapshot %d: page %d/%d has uncommitted frame and no covering version", s, tag.Object, page)
	}
	p.mu.Unlock()
	return p.readSnapshotMiss(clk, tag, page, s, true)
}

// readSnapshotMiss reads the page from the storage system for a snapshot
// reader and re-resolves afterwards: a writer may have first-touched or
// committed the page while the I/O was in flight, in which case the
// chain — which then covers the snapshot — wins over the possibly-newer
// disk image. install controls whether the frame is populated (a
// guard-directed disk read must not install: the frame, if any, is
// newer content).
func (p *Pool) readSnapshotMiss(clk *simclock.Clock, tag policy.Tag, page int64, s int64, install bool) ([]byte, error) {
	k := key{obj: tag.Object, page: page}
	if install {
		p.mu.Lock()
		p.stats.Misses++
		p.mMiss.Inc()
		if err := p.makeRoom(clk); err != nil {
			p.mu.Unlock()
			return nil, err
		}
		p.mu.Unlock()
	}

	data, err := p.mgr.ReadPage(clk, tag, page)
	if err != nil {
		return nil, err
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	if vdata, ok := p.chainResolveLocked(k, s); ok {
		if vdata != nil {
			return vdata, nil
		}
		// Still a nil guard: the disk image we read is the guarded
		// committed content — any write-back that would have replaced it
		// must first have materialized the guard, turning vdata non-nil.
		return data, nil
	}
	if e, ok := p.table[k]; ok {
		if !e.uncommitted {
			p.touch(e)
			return e.data, nil
		}
		return nil, fmt.Errorf("bufferpool: snapshot %d: page %d/%d has uncommitted frame and no covering version", s, tag.Object, page)
	}
	if install {
		e := &entry{key: k, data: data, content: tag.Content}
		p.table[k] = e
		p.pushFront(e)
	}
	return data, nil
}

// materializeGuards backfills every nil-data version of a page with the
// current disk image. Write-back paths call it before overwriting the
// disk copy, preserving the invariant that a nil guard denotes content
// still readable from disk. Called without p.mu held.
func (p *Pool) materializeGuards(clk *simclock.Clock, k key, content policy.ContentType) error {
	p.mu.Lock()
	guarded := false
	for _, v := range p.versions[k] {
		if v.data == nil && !v.absent {
			guarded = true
			break
		}
	}
	p.mu.Unlock()
	if !guarded {
		return nil
	}
	tag := policy.Tag{Object: k.obj, Content: content}
	data, err := p.mgr.ReadPage(clk, tag, k.page)
	if errors.Is(err, pagestore.ErrUnknownObject) {
		return nil // the object was dropped: its versions are dead anyway
	}
	if err != nil {
		return err
	}
	p.mu.Lock()
	chain := p.versions[k]
	for i := range chain {
		if chain[i].data == nil && !chain[i].absent {
			chain[i].data = data
			p.verBytes += int64(len(data))
			p.mVerBytes.Add(int64(len(data)))
		}
	}
	p.mu.Unlock()
	return nil
}

// VersionStats returns a snapshot of the version store.
func (p *Pool) VersionStats() VersionStats {
	snaps := p.activeSnaps()
	p.mu.Lock()
	n := 0
	for _, chain := range p.versions {
		n += len(chain)
	}
	vs := VersionStats{Versions: n, Bytes: p.verBytes, Snapshots: len(snaps)}
	p.mu.Unlock()
	if len(snaps) > 0 {
		vs.OldestSnapshot = snaps[0]
	}
	return vs
}
