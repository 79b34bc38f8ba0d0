package pagestore

import "fmt"

// Access is one physical device access an operation on a Backend plans:
// the LBA range touched, the direction, and whether the blocks hold
// structural metadata (bloom filters, index blocks, a manifest) rather
// than page data. The storage manager turns each access into a
// classified dss.Request — Meta accesses carry the highest cacheable
// priority so the hybrid cache can pin hot structure blocks, data
// accesses carry the class the policy table assigned to the page
// request itself.
//
// A backend that absorbs an operation in volatile memory (an LSM
// memtable write, a memtable read hit) returns an empty plan: no device
// is touched and the caller's clock must not advance. Durability of
// absorbed writes is the WAL's job until the next Sync.
type Access struct {
	// Write is the transfer direction.
	Write bool
	// LBA and Blocks delimit the accessed device range.
	LBA    int64
	Blocks int
	// Meta marks structure blocks (bloom/index/manifest) as opposed to
	// page data.
	Meta bool
}

// Iterator walks one object's pages in page order. Next returns ok=false
// after the last page. Like Backend.Read, data may be the stored block
// itself: callers must not write into it.
type Iterator interface {
	Next() (page int64, data []byte, ok bool, err error)
}

// Backend is the storage-layer seam: the engine's storage manager talks
// to this interface instead of the concrete extent heap Store, so the
// page-to-block mapping (heap extents, an LSM tree, ...) is pluggable
// underneath the same classification machinery.
//
// Read and Write return, besides the page content, the plan of device
// accesses the operation implies; the storage manager submits the plan
// through the DSS interface. Delete and Truncate report the freed
// extents so the caller can issue TRIM — a backend whose space is
// reclaimed asynchronously (LSM compaction) may report nothing here and
// deliver its TRIMs through the Maintainer interface instead.
//
// Implementations must be safe for concurrent use.
type Backend interface {
	// Create registers a new empty object. Creating an existing object
	// is an error.
	Create(id ObjectID) error
	// Exists reports whether the object is registered.
	Exists(id ObjectID) bool
	// Pages returns the logical page count of the object (0 if absent).
	Pages(id ObjectID) int64
	// Extend grows the object's logical page count (metadata only).
	Extend(id ObjectID, pages int64) error
	// Read returns the content of (object, page) — never-written pages
	// read as zeroes — plus the access plan that produced it. The slice
	// may be the stored block itself, shared between readers: callers
	// must not write into it.
	Read(id ObjectID, page int64) ([]byte, []Access, error)
	// Write stores the content of (object, page) and returns the access
	// plan. The caller hands data over, capacity included, and never
	// writes into it again (KeepPage). A stored block is immutable: the
	// backend replaces it on the next Write and never writes into it, so
	// it may hand it to every reader and, like the LSM through flushes
	// and compactions, move it between its own structures by reference.
	Write(id ObjectID, page int64, data []byte) ([]Access, error)
	// Truncate discards the object's content but keeps it registered,
	// reporting any synchronously freed extents.
	Truncate(id ObjectID) ([]Extent, error)
	// Delete removes the object, reporting any synchronously freed
	// extents for TRIM.
	Delete(id ObjectID) ([]Extent, error)
	// Objects returns the registered object IDs in ascending order.
	Objects() []ObjectID
	// TotalPages reports the sum of logical pages across objects.
	TotalPages() int64
	// Iter iterates the object's pages in page order.
	Iter(id ObjectID) (Iterator, error)
}

// MaintKind distinguishes the maintenance work a backend generates.
type MaintKind int

const (
	// MaintFlush is a memtable flush: sequential writes of a fresh
	// SSTable (or equivalent).
	MaintFlush MaintKind = iota
	// MaintCompaction is a background reorganization: bulk reads of
	// input runs, bulk writes of merged output, TRIMs of freed input
	// space.
	MaintCompaction
)

// String implements fmt.Stringer.
func (k MaintKind) String() string {
	if k == MaintFlush {
		return "flush"
	}
	return "compaction"
}

// Maint is one unit of deferred background work a backend accumulated:
// the device accesses it implies and the extents it freed. The storage
// manager drains these after mutating operations and submits them as
// background traffic under the compaction class.
type Maint struct {
	Kind     MaintKind
	Accesses []Access
	Trims    []Extent
}

// Maintainer is implemented by backends that generate deferred
// background I/O (flushes, compactions). DrainMaintenance returns and
// clears the accumulated work queue.
type Maintainer interface {
	DrainMaintenance() []Maint
}

// Syncer is implemented by backends holding volatile state that a
// checkpoint must force to durable media (an LSM memtable and its
// manifest). Sync makes all previously absorbed writes durable; the
// implied I/O is reported through DrainMaintenance.
type Syncer interface {
	Sync() error
}

// Volatile is implemented by backends that go through a crash: both
// stores, since both can be killed by their Cut. Crash revives the Cut,
// discards all volatile state (memtable, in-memory structure caches) and
// reloads the backend from its durable image, discarding orphaned blocks
// no manifest references; the heap store writes in place and has nothing
// to discard. The engine's WAL recovery then replays committed work lost
// from the volatile state.
type Volatile interface {
	Crash() error
}

var (
	_ Backend  = (*Store)(nil)
	_ Volatile = (*Store)(nil)
)

// Read implements Backend: one page read is one block access at the
// page's LBA.
func (s *Store) Read(id ObjectID, page int64) ([]byte, []Access, error) {
	data, lba, err := s.ReadPage(id, page)
	if err != nil {
		return nil, nil, err
	}
	return data, []Access{{LBA: lba, Blocks: 1}}, nil
}

// Write implements Backend: one page write is one block write at the
// page's LBA.
func (s *Store) Write(id ObjectID, page int64, data []byte) ([]Access, error) {
	lba, err := s.WritePage(id, page, data)
	if err != nil {
		return nil, err
	}
	return []Access{{Write: true, LBA: lba, Blocks: 1}}, nil
}

// storeIter iterates a heap object's pages through ReadPage.
type storeIter struct {
	s     *Store
	id    ObjectID
	page  int64
	pages int64
}

// Next implements Iterator.
func (it *storeIter) Next() (int64, []byte, bool, error) {
	if it.page >= it.pages {
		return 0, nil, false, nil
	}
	p := it.page
	data, _, err := it.s.ReadPage(it.id, p)
	if err != nil {
		return 0, nil, false, err
	}
	it.page++
	return p, data, true, nil
}

// Iter implements Backend. The page count is snapshotted at creation;
// pages appended during iteration are not visited.
func (s *Store) Iter(id ObjectID) (Iterator, error) {
	if err := s.Check(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	o := s.objects[id]
	s.mu.Unlock()
	if o == nil {
		return nil, fmt.Errorf("pagestore: %w %d", ErrUnknownObject, id)
	}
	return &storeIter{s: s, id: id, pages: s.Pages(id)}, nil
}
