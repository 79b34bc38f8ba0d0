// Version store: copy-on-write page snapshots for MVCC snapshot reads.
//
// The buffer pool keeps, per page, a chain of superseded committed
// images. A mutating transaction's first touch of a page (the same
// first-touch event that records its no-steal pre-image) pushes the
// frame's committed content onto the page's chain as a *pending*
// version; commit seals it with the transaction's commit LSN, abort
// removes it. A snapshot reader bound with BindSnapshot resolves every
// Get of transactional content against its snapshot LSN S:
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

// PageRef names one page whose pending version a commit seals.
type PageRef struct {
	// Obj is the owning storage object.
	Obj pagestore.ObjectID
	// Page is the page number within the object.
	Page int64
}

// pageVersion is one entry of a page's version chain: a committed image
// superseded (or about to be superseded) by a later commit.
type pageVersion struct {
	created    int64 // commit LSN that produced this content (0 = base image)
	superseded int64 // commit LSN that replaced it; 0 while the owner runs
	owner      int64 // transaction holding the pending entry (0 once sealed)
	absent     bool  // the page did not exist at this version
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

// BindSnapshot pins a snapshot LSN to a session stream: every Get
// carrying clk resolves transactional pages as of that LSN until
// UnbindSnapshot. A bound stream must not Put transactional content.
//
// The LSN is what read returns — the log's commit watermark — read
// inside the critical section that installs the binding. A pruner
// therefore either finds the binding in activeSnaps, or took that list
// (and before it its own watermark) before read ran: the watermark only
// rises, so the snapshot begins at or above everything that pruner may
// drop. Read first and bound second, a commit and a prune in between
// would take away the version the snapshot is about to need.
func (p *Pool) BindSnapshot(clk *simclock.Clock, read func() int64) int64 {
	p.txnMu.Lock()
	lsn := read()
	p.snaps[clk] = lsn
	n := int64(len(p.snaps))
	p.txnMu.Unlock()
	p.mSnaps.Set(n)
	return lsn
}

// UnbindSnapshot releases the stream's snapshot binding (end of the
// read-only transaction). Unknown streams are ignored (crash path).
func (p *Pool) UnbindSnapshot(clk *simclock.Clock) {
	p.txnMu.Lock()
	delete(p.snaps, clk)
	n := int64(len(p.snaps))
	p.txnMu.Unlock()
	p.mSnaps.Set(n)
}

// snapFor returns the snapshot LSN bound to a stream.
func (p *Pool) snapFor(clk *simclock.Clock) (int64, bool) {
	p.txnMu.RLock()
	lsn, ok := p.snaps[clk]
	p.txnMu.RUnlock()
	return lsn, ok
}

// activeSnaps returns the bound snapshot LSNs, sorted ascending. Called
// without p.mu held (txnMu nests inside p.mu nowhere, so gathering the
// snapshot set first keeps the lock order single-level).
func (p *Pool) activeSnaps() []int64 {
	p.txnMu.RLock()
	out := make([]int64, 0, len(p.snaps))
	for _, lsn := range p.snaps {
		out = append(out, lsn)
	}
	p.txnMu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// pushPendingLocked opens a pending version holding the frame's
// pre-transaction content. frameLSN is the LSN the content was committed
// at (raised to the chain horizon when the frame had been evicted and
// reloaded since, which loses the stamp). Caller holds p.mu.
func (p *Pool) pushPendingLocked(txn int64, k key, frameLSN int64, pre []byte, absent bool) {
	created := frameLSN
	chain := p.versions[k]
	if n := len(chain); n > 0 && chain[n-1].superseded > created {
		created = chain[n-1].superseded
	}
	p.versions[k] = append(chain, pageVersion{
		created: created, owner: txn, absent: absent, data: pre,
	})
	p.verBytes += int64(len(pre))
	p.mVersions.Add(1)
	p.mVerBytes.Add(int64(len(pre)))
}

// dropPendingLocked removes txn's pending version of a page (abort path)
// and returns the created LSN it guarded, or -1 if none was open.
// Caller holds p.mu.
func (p *Pool) dropPendingLocked(txn int64, k key) int64 {
	chain := p.versions[k]
	for i := len(chain) - 1; i >= 0; i-- {
		if chain[i].superseded == 0 && chain[i].owner == txn {
			created := chain[i].created
			p.verBytes -= int64(len(chain[i].data))
			p.mVersions.Add(-1)
			p.mVerBytes.Add(-int64(len(chain[i].data)))
			chain = append(chain[:i], chain[i+1:]...)
			if len(chain) == 0 {
				delete(p.versions, k)
			} else {
				p.versions[k] = chain
			}
			return created
		}
	}
	return -1
}

// CommitVersions seals txn's pending versions with its commit LSN and
// stamps the frames as committed at that LSN. It must be called while
// the commit order is still pinned (the transaction layer holds its
// commit-sequence mutex), so chain seal order matches commit-LSN order:
// otherwise a snapshot taken between a later commit record and this
// seal could miss a version it is entitled to. watermark is the current
// published commit watermark, used to opportunistically prune the
// just-sealed chains; it must have been read before the call, i.e.
// before activeSnaps below (BindSnapshot relies on that order).
func (p *Pool) CommitVersions(txn, commitLSN, watermark int64, pages []PageRef) {
	if len(pages) == 0 {
		return
	}
	snaps := p.activeSnaps()
	p.mu.Lock()
	for _, r := range pages {
		k := key{obj: r.Obj, page: r.Page}
		if e, ok := p.table[k]; ok {
			e.verLSN = commitLSN
			e.uncommitted = false
		}
		chain := p.versions[k]
		for i := len(chain) - 1; i >= 0; i-- {
			if chain[i].superseded == 0 && chain[i].owner == txn {
				chain[i].superseded = commitLSN
				chain[i].owner = 0
				break
			}
		}
		p.pruneChainLocked(k, watermark, snaps)
	}
	p.mu.Unlock()
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
// reader and re-resolves afterwards: a writer may have captured or
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
