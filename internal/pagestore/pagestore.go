// Package pagestore maps database objects (tables, indexes, temporary
// files) onto the linear block address space of the storage system, and
// holds the page contents themselves.
//
// The simulated devices (package device) model timing only; the actual
// bytes of every page live here, in the role the disk platters play on a
// real system. Objects are laid out in contiguous extents so that a
// sequential scan of an object produces a sequential LBA run — the
// property Rule 1 of the paper depends on, and the property the device
// I/O scheduler's coalescing and readahead (package iosched) exploit.
//
// Deleting an object releases its extents and reports them to the caller
// so the storage manager can issue TRIM commands (Section 4.2.3).
//
// A Cut kills a store at a chosen durable write, so crash tests sweep
// every write of a scenario in turn. The extent Store holds one, as the
// LSM store does (package lsm): every page write passes it, and a killed
// store serves nothing until Crash() revives it. Page writes are in
// place and immediately durable, so a revived Store has lost nothing.
package pagestore

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"
)

// ErrUnknownObject marks operations on an object that is not (or no
// longer) registered. Callers racing a deletion — e.g. a background
// write-back of a temp-file page whose file was just dropped — match it
// with errors.Is and drop the write: the data is dead by definition.
var ErrUnknownObject = errors.New("unknown object")

// PageSize is the size of a page in bytes (one device block).
const PageSize = 8192

// ExtentPages is the number of pages in an allocation extent. Objects grow
// extent by extent, keeping their LBA runs contiguous.
const ExtentPages = 256

// ObjectID identifies a storage object. The catalog assigns tables and
// indexes IDs from 1 upward, below the reserved ranges, and temporary
// files IDs from TempBase.
type ObjectID uint32

// The reserved object-ID ranges. A backend may treat everything from
// LogBase up as outside the database proper, as the LSM store does.
const (
	// LogBase starts the write-ahead log range: the log's metadata page,
	// then its segments.
	LogBase ObjectID = 1 << 29
	// CoordLogBase starts the range of a 2PC coordinator's decision log,
	// above the data log's segments.
	CoordLogBase ObjectID = LogBase + 1<<28
	// TempBase starts the temporary-file range.
	TempBase ObjectID = 1 << 30
)

// Extent is a contiguous LBA range [Start, Start+Pages).
type Extent struct {
	Start int64
	Pages int64
}

// object tracks one object's extents and logical size.
type object struct {
	extents []int64 // start LBA of each extent
	pages   int64   // logical page count
}

// Store is the page store. It is safe for concurrent use. The embedded
// Cut is its kill rule: Write passes it, every other operation that can
// fail refuses with ErrKilled once it has fired.
type Store struct {
	*Cut
	mu      sync.Mutex
	objects map[ObjectID]*object
	pages   map[int64][]byte // LBA -> content
	freeExt []int64          // recycled extent start LBAs
	nextLBA int64
	// reads holds, for each extent from base up to nextLBA that has been
	// read, the plan of a one-block read of each of its LBAs, so that
	// Read hands out a slice of it instead of allocating a plan. A plan
	// is never written after its extent's first read.
	reads [][]Access
	base  int64
}

// NewStore creates an empty store with its own Cut, allocating from LBA 0.
func NewStore() *Store { return NewStoreOn(new(Cut), 0) }

// NewStoreOn creates an empty store whose writes pass cut and whose
// extents start at LBA base. A store that embeds this one for part of
// its objects hands it its own Cut, so both count writes in one
// sequence, and a base above its own address space.
func NewStoreOn(cut *Cut, base int64) *Store {
	return &Store{
		Cut:     cut,
		objects: make(map[ObjectID]*object),
		pages:   make(map[int64][]byte),
		nextLBA: base,
		base:    base,
	}
}

// Crash implements Volatile: pages are written in place, so nothing is
// lost, and the store only revives from a fired Cut.
func (s *Store) Crash() error {
	s.Revive()
	return nil
}

// Create registers a new empty object. Creating an existing object is an
// error.
func (s *Store) Create(id ObjectID) error {
	if err := s.Check(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.objects[id]; ok {
		return fmt.Errorf("pagestore: object %d already exists", id)
	}
	s.objects[id] = &object{}
	return nil
}

// Exists reports whether the object is registered.
func (s *Store) Exists(id ObjectID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.objects[id]
	return ok
}

// Pages returns the logical page count of the object (0 if absent).
func (s *Store) Pages(id ObjectID) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if o := s.objects[id]; o != nil {
		return o.pages
	}
	return 0
}

// allocExtent returns the start LBA of a fresh extent. Caller holds s.mu.
func (s *Store) allocExtent() int64 {
	if n := len(s.freeExt); n > 0 {
		lba := s.freeExt[n-1]
		s.freeExt = s.freeExt[:n-1]
		return lba
	}
	lba := s.nextLBA
	s.nextLBA += ExtentPages
	s.reads = append(s.reads, nil)
	return lba
}

// lbaLocked translates (object, page) to a block address, growing the
// object as needed. Writers may arrive out of order (the buffer pool
// flushes dirty pages in arbitrary order), so growth past the current end
// is allowed; the intervening pages read as zeroes until written. Caller
// holds s.mu.
func (s *Store) lbaLocked(id ObjectID, page int64) (int64, error) {
	o := s.objects[id]
	if o == nil {
		return 0, fmt.Errorf("pagestore: %w %d", ErrUnknownObject, id)
	}
	if page < 0 {
		return 0, fmt.Errorf("pagestore: object %d: negative page %d", id, page)
	}
	if page >= o.pages {
		o.pages = page + 1
	}
	ext := page / ExtentPages
	for int64(len(o.extents)) <= ext {
		o.extents = append(o.extents, s.allocExtent())
	}
	return o.extents[ext] + page%ExtentPages, nil
}

// Extend grows the object's logical page count without writing content
// (file extension, metadata only). Pages between the old and the new end
// read as zeroes until written. Heap appenders extend the file as soon as
// a page is installed in the buffer pool, so the next appender — and any
// concurrent scanner — sees the logical end of the file rather than the
// write-back horizon.
func (s *Store) Extend(id ObjectID, pages int64) error {
	if err := s.Check(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	o := s.objects[id]
	if o == nil {
		return fmt.Errorf("pagestore: %w %d", ErrUnknownObject, id)
	}
	if pages > o.pages {
		o.pages = pages
	}
	return nil
}

// zeroPage is what every never-written page reads as.
var zeroPage = make([]byte, PageSize)

// NewPage returns a zeroed image of n bytes with capacity max(PageSize,
// n): a backend keeps such an image instead of copying it.
func NewPage(n int) []byte { return make([]byte, n, max(PageSize, n)) }

// KeepPage returns the block a backend stores for data (at most PageSize
// bytes): data[:PageSize] itself when data has a page of capacity and a
// zero tail, a padded copy otherwise. Either way the caller hands data
// over, capacity included, and never writes into it again.
func KeepPage(data []byte) []byte {
	if cap(data) != PageSize || !bytes.Equal(data[len(data):PageSize], zeroPage[len(data):]) {
		return append(NewPage(0), data...)[:PageSize]
	}
	return data[:PageSize]
}

// Read implements Backend: one page read is one block access at the
// page's LBA. Pages never written read as zeroes. The slice is the stored
// page itself, shared with every other reader: stored pages are immutable
// (Write replaces, nothing writes into one), and callers must not write
// into what they are handed.
func (s *Store) Read(id ObjectID, page int64) ([]byte, []Access, error) {
	if err := s.Check(); err != nil {
		return nil, nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	lba, err := s.lbaLocked(id, page)
	if err != nil {
		return nil, nil, err
	}
	data, ok := s.pages[lba]
	if !ok {
		data = zeroPage
	}
	ext, i := (lba-s.base)/ExtentPages, (lba-s.base)%ExtentPages
	plans := s.reads[ext]
	if plans == nil {
		plans = make([]Access, ExtentPages)
		for j := range plans {
			plans[j] = Access{LBA: lba - i + int64(j), Blocks: 1}
		}
		s.reads[ext] = plans
	}
	return data, plans[i : i+1 : i+1], nil
}

// Write implements Backend: one page write is one block write at the
// page's LBA, keeping data (KeepPage). The write passes the Cut before
// anything is allocated.
func (s *Store) Write(id ObjectID, page int64, data []byte) ([]Access, error) {
	if len(data) > PageSize {
		return nil, fmt.Errorf("pagestore: page payload %d exceeds %d", len(data), PageSize)
	}
	if err := s.Pass(); err != nil {
		return nil, err
	}
	buf := KeepPage(data)
	s.mu.Lock()
	defer s.mu.Unlock()
	lba, err := s.lbaLocked(id, page)
	if err != nil {
		return nil, err
	}
	s.pages[lba] = buf
	return []Access{{Write: true, LBA: lba, Blocks: 1}}, nil
}

// Delete removes the object and returns the freed extents so the caller
// can TRIM them.
func (s *Store) Delete(id ObjectID) ([]Extent, error) {
	if err := s.Check(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	o := s.objects[id]
	if o == nil {
		return nil, fmt.Errorf("pagestore: %w %d", ErrUnknownObject, id)
	}
	delete(s.objects, id)
	exts := make([]Extent, 0, len(o.extents))
	for i, start := range o.extents {
		// Only the last extent can be partly used.
		used := min(ExtentPages, max(0, o.pages-int64(i)*ExtentPages))
		exts = append(exts, Extent{Start: start, Pages: used})
		for p := int64(0); p < ExtentPages; p++ {
			delete(s.pages, start+p)
		}
		s.freeExt = append(s.freeExt, start)
	}
	sort.Slice(exts, func(i, j int) bool { return exts[i].Start < exts[j].Start })
	return exts, nil
}

// Objects returns the registered object IDs (sorted, for deterministic
// iteration in tests).
func (s *Store) Objects() []ObjectID {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]ObjectID, 0, len(s.objects))
	for id := range s.objects {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// TotalPages reports the sum of logical pages across objects.
func (s *Store) TotalPages() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for _, o := range s.objects {
		n += o.pages
	}
	return n
}
