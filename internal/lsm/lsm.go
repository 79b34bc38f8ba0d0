// Package lsm implements a log-structured merge-tree storage backend
// behind the pagestore.Backend seam: page writes are absorbed by an
// in-memory memtable, flushed as sorted-string tables (SSTables), and
// reorganized by leveled compaction in the background.
//
// The point of the backend, in this repository, is the I/O contrast it
// creates with the extent heap store. The heap turns every page write
// into one in-place device write; the LSM turns foreground writes into
// no device I/O at all and pays for it later with bulk sequential
// flush/compaction traffic. That deferred traffic is exactly the kind
// of background burst Section 4 of the paper argues must not share a
// QoS class with foreground work: the storage manager delivers it under
// dss.ClassCompaction — below every commit-critical class in the I/O
// scheduler, throttled by the background token budget, and non-caching
// so bulk rewrites never claim SSD cache space.
//
// # Durability model
//
// The memtable is volatile. Object metadata (the registry mapping
// object → generation and logical size) is instantly durable, exactly
// as the heap store's object map is: both model file-system metadata
// journaling outside the paged data path. WAL recovery depends on this
// — redo replays page writes into objects it expects to exist.
//
// Everything else follows an A/B manifest: a flush or compaction first
// writes its output SSTable, then persists a new manifest version
// naming the live tables, and only then frees (and TRIMs) replaced
// input tables. A crash at any point leaves either the old or the new
// manifest intact; blocks referenced by neither are orphans that
// Crash() discards. Writes absorbed since the last Sync are lost with
// the memtable and come back through the engine's WAL replay.
//
// The crash tests check this promise at every durable block write, as
// ALICE and CrashMonkey enumerate crash points. The store embeds a
// pagestore.Cut, the kill rule the heap store applies too, and hands
// the same Cut to the heap store it embeds for the reserved object
// range: KillAfter(n) lets n more block writes through (SSTable blocks,
// manifest-slot blocks, direct-region pages), numbered in one sequence,
// and dies at the next, which does not happen.
//
// # Stored blocks are immutable
//
// Write puts the caller's buffer into the memtable as it is when it is
// a zero-tailed page-capacity image, and a padded PageSize copy of it
// otherwise (pagestore.KeepPage). From then on the block is never
// written to: a flush hands the memtable's slices to the new L0
// table by reference, a compaction hands the input tables' data blocks
// to its output the same way, and Read and Iter return the memtable's
// or the table's slice itself. A rewrite of the page replaces the map
// entry, and a freed table only drops its LBAs from the disk image, so
// every slice handed out earlier keeps its bytes. Callers must not
// write into what they read (the pagestore.Backend contract).
package lsm

import (
	"fmt"
	"sort"
	"sync"

	"hstoragedb/internal/pagestore"
)

const (
	// manifestSlotBlocks is the size of one manifest slot; slots A and B
	// occupy LBAs [0, 2*manifestSlotBlocks).
	manifestSlotBlocks = 64
	// dataBase is the first LBA available to SSTables.
	dataBase = 2 * manifestSlotBlocks
	// directLBAOffset relocates the embedded direct-region heap store's
	// address space far above the LSM's own. The devices model a
	// constant average seek for any non-near jump, so the offset
	// distorts no timing; it only keeps the two allocators disjoint.
	directLBAOffset = int64(1) << 40
)

// Config sizes a Store. Zero values select defaults.
type Config struct {
	// MemtablePages is the flush threshold: the memtable flushes to an
	// L0 SSTable when it holds this many pages. Default 64.
	MemtablePages int
	// L0Tables is the compaction trigger: when L0 accumulates this many
	// tables they are merged (with every overlapping L1 table) into a
	// single sorted L1 run. Default 4.
	L0Tables int
}

const (
	// bloomBitsPerKey sizes each table's bloom filter (~1%
	// false-positive rate at four probes).
	bloomBitsPerKey = 10
)

func (c Config) withDefaults() Config {
	if c.MemtablePages <= 0 {
		c.MemtablePages = 64
	}
	if c.L0Tables <= 0 {
		c.L0Tables = 4
	}
	return c
}

// key identifies one stored page version: the owning object, the
// object's generation when the page was written, and the page number.
// Truncate and Delete bump or drop the generation, turning every older
// key into garbage that compaction collects — the tree needs no
// tombstones.
type key struct {
	obj  pagestore.ObjectID
	gen  uint32
	page int64
}

func (k key) less(o key) bool {
	if k.obj != o.obj {
		return k.obj < o.obj
	}
	if k.gen != o.gen {
		return k.gen < o.gen
	}
	return k.page < o.page
}

// objMeta is the instantly durable registry record of one object.
type objMeta struct {
	gen   uint32
	pages int64
}

// span is a contiguous block range [start, start+blocks).
type span struct {
	start, blocks int64
}

// Store is an LSM-tree storage backend. It is safe for concurrent use.
// The embedded Cut is its kill rule, shared with the direct region.
type Store struct {
	*pagestore.Cut
	mu  sync.Mutex
	cfg Config

	// reg is the instantly durable object registry (see package doc).
	reg     map[pagestore.ObjectID]*objMeta
	nextGen uint32

	// disk is the durable block image: LBA → content.
	disk map[int64][]byte

	// mem is the volatile memtable.
	mem map[key][]byte

	// levels[0] holds L0 tables oldest-first; levels[1] holds the
	// sorted, non-overlapping L1 run.
	levels      [2][]*table
	nextTableID uint64
	version     uint64

	// free/nextLBA is the first-fit block allocator over [dataBase, ∞).
	free    []span
	nextLBA int64

	// maint accumulates flush/compaction jobs until the storage manager
	// drains them.
	maint []pagestore.Maint

	// direct serves the pass-through object region.
	direct *pagestore.Store

	orphans int64
}

var (
	_ pagestore.Backend    = (*Store)(nil)
	_ pagestore.Maintainer = (*Store)(nil)
	_ pagestore.Syncer     = (*Store)(nil)
	_ pagestore.Volatile   = (*Store)(nil)
)

// New creates an empty LSM store.
func New(cfg Config) *Store {
	cut := new(pagestore.Cut)
	return &Store{
		Cut:     cut,
		cfg:     cfg.withDefaults(),
		reg:     make(map[pagestore.ObjectID]*objMeta),
		disk:    make(map[int64][]byte),
		mem:     make(map[key][]byte),
		nextLBA: dataBase,
		direct:  pagestore.NewStoreOn(cut, directLBAOffset),
	}
}

// isDirect reports whether the object lives in the pass-through region:
// the reserved ranges from pagestore.LogBase up (WAL segments, the 2PC
// decision log, temporary files) bypass the tree and live on an embedded
// heap store with in-place writes. The WAL cannot ride the memtable it is
// responsible for making durable.
func (s *Store) isDirect(id pagestore.ObjectID) bool { return id >= pagestore.LogBase }

// objectLocked is the preamble of every tree-object operation: a dead
// store serves nothing, and an unregistered object is ErrUnknownObject.
func (s *Store) objectLocked(id pagestore.ObjectID) (*objMeta, error) {
	if err := s.Check(); err != nil {
		return nil, err
	}
	o := s.reg[id]
	if o == nil {
		return nil, fmt.Errorf("lsm: %w %d", pagestore.ErrUnknownObject, id)
	}
	return o, nil
}

// Create implements pagestore.Backend.
func (s *Store) Create(id pagestore.ObjectID) error {
	if s.isDirect(id) {
		return s.direct.Create(id)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.Check(); err != nil {
		return err
	}
	if _, ok := s.reg[id]; ok {
		return fmt.Errorf("lsm: object %d already exists", id)
	}
	s.nextGen++
	s.reg[id] = &objMeta{gen: s.nextGen}
	return nil
}

// Exists implements pagestore.Backend.
func (s *Store) Exists(id pagestore.ObjectID) bool {
	if s.isDirect(id) {
		return s.direct.Exists(id)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.reg[id]
	return ok
}

// Pages implements pagestore.Backend.
func (s *Store) Pages(id pagestore.ObjectID) int64 {
	if s.isDirect(id) {
		return s.direct.Pages(id)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if o := s.reg[id]; o != nil {
		return o.pages
	}
	return 0
}

// Extend implements pagestore.Backend.
func (s *Store) Extend(id pagestore.ObjectID, pages int64) error {
	if s.isDirect(id) {
		return s.direct.Extend(id, pages)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	o, err := s.objectLocked(id)
	if err != nil {
		return err
	}
	if pages > o.pages {
		o.pages = pages
	}
	return nil
}

// Read implements pagestore.Backend. A memtable hit returns an empty
// plan; a tree probe charges one bloom block per candidate table, one
// index block per bloom maybe, and one data block on the hit. The slice
// is the stored block itself, not a copy.
func (s *Store) Read(id pagestore.ObjectID, page int64) ([]byte, []pagestore.Access, error) {
	if s.isDirect(id) {
		return s.direct.Read(id, page)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	o, err := s.objectLocked(id)
	if err != nil {
		return nil, nil, err
	}
	if page < 0 {
		return nil, nil, fmt.Errorf("lsm: object %d: negative page %d", id, page)
	}
	if page >= o.pages {
		// Heap parity: reading past the end grows the object and the
		// missing pages read as zeroes.
		o.pages = page + 1
	}
	k := key{obj: id, gen: o.gen, page: page}
	if d, ok := s.mem[k]; ok {
		return d, nil, nil
	}
	data, plan := s.probeLocked(k)
	if data == nil {
		data = make([]byte, pagestore.PageSize)
	}
	return data, plan, nil
}

// probeLocked searches the tree newest-first for k, returning the page
// content (nil if absent) and the device accesses the probe implies.
func (s *Store) probeLocked(k key) ([]byte, []pagestore.Access) {
	var plan []pagestore.Access
	probe := func(t *table) ([]byte, bool) {
		if k.less(t.minKey) || t.maxKey.less(k) {
			return nil, false
		}
		plan = append(plan, pagestore.Access{LBA: t.bloomBlockOf(k), Blocks: 1, Meta: true})
		if !t.bloomMaybe(k) {
			return nil, false
		}
		i, ok := t.find(k)
		plan = append(plan, pagestore.Access{LBA: t.indexBlockOf(i), Blocks: 1, Meta: true})
		if !ok {
			return nil, false // bloom false positive
		}
		plan = append(plan, pagestore.Access{LBA: t.dataStart + int64(i), Blocks: 1})
		return s.disk[t.dataStart+int64(i)], true
	}
	l0 := s.levels[0]
	for i := len(l0) - 1; i >= 0; i-- {
		if data, ok := probe(l0[i]); ok {
			return data, plan
		}
	}
	for _, t := range s.levels[1] {
		if data, ok := probe(t); ok {
			return data, plan
		}
	}
	return nil, plan
}

// Write implements pagestore.Backend: the page is absorbed by the
// memtable (empty plan — the caller waits on no device). Crossing the
// flush threshold builds an SSTable and queues the flush, and possibly
// a compaction, as maintenance. The caller hands data over: the memtable
// keeps it (pagestore.KeepPage), and the block then travels by
// reference through flush and compaction.
func (s *Store) Write(id pagestore.ObjectID, page int64, data []byte) ([]pagestore.Access, error) {
	if s.isDirect(id) {
		return s.direct.Write(id, page, data)
	}
	if len(data) > pagestore.PageSize {
		return nil, fmt.Errorf("lsm: page payload %d exceeds %d", len(data), pagestore.PageSize)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	o, err := s.objectLocked(id)
	if err != nil {
		return nil, err
	}
	if page < 0 {
		return nil, fmt.Errorf("lsm: object %d: negative page %d", id, page)
	}
	if page >= o.pages {
		o.pages = page + 1
	}
	s.mem[key{obj: id, gen: o.gen, page: page}] = pagestore.KeepPage(data)
	if len(s.mem) >= s.cfg.MemtablePages {
		if err := s.flushLocked(); err != nil {
			return nil, err
		}
	}
	return nil, nil
}

// Truncate implements pagestore.Backend: the object gets a fresh
// generation, turning every stored version into garbage for compaction
// to collect. No extents free synchronously; reclaimed space is
// TRIMmed by the compaction that rewrites it.
func (s *Store) Truncate(id pagestore.ObjectID) ([]pagestore.Extent, error) {
	if s.isDirect(id) {
		return s.direct.Truncate(id)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	o, err := s.objectLocked(id)
	if err != nil {
		return nil, err
	}
	s.scrubMemLocked(id)
	s.nextGen++
	o.gen = s.nextGen
	o.pages = 0
	return nil, nil
}

// Delete implements pagestore.Backend. As with Truncate, space comes
// back through compaction rather than through the returned extents.
func (s *Store) Delete(id pagestore.ObjectID) ([]pagestore.Extent, error) {
	if s.isDirect(id) {
		return s.direct.Delete(id)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.objectLocked(id); err != nil {
		return nil, err
	}
	s.scrubMemLocked(id)
	delete(s.reg, id)
	return nil, nil
}

// scrubMemLocked drops the object's memtable entries so a dropped
// object's pages are never flushed.
func (s *Store) scrubMemLocked(id pagestore.ObjectID) {
	for k := range s.mem {
		if k.obj == id {
			delete(s.mem, k)
		}
	}
}

// Objects implements pagestore.Backend.
func (s *Store) Objects() []pagestore.ObjectID {
	s.mu.Lock()
	ids := make([]pagestore.ObjectID, 0, len(s.reg))
	for id := range s.reg {
		ids = append(ids, id)
	}
	s.mu.Unlock()
	ids = append(ids, s.direct.Objects()...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// TotalPages implements pagestore.Backend.
func (s *Store) TotalPages() int64 {
	s.mu.Lock()
	var n int64
	for _, o := range s.reg {
		n += o.pages
	}
	s.mu.Unlock()
	return n + s.direct.TotalPages()
}

// lsmIter iterates a tree-resident object's pages, re-reading under the
// store lock on every step so a racing delete surfaces as
// ErrUnknownObject (matching the heap iterator's behaviour).
type lsmIter struct {
	s     *Store
	id    pagestore.ObjectID
	gen   uint32
	page  int64
	pages int64
}

// Next implements pagestore.Iterator.
func (it *lsmIter) Next() (int64, []byte, bool, error) {
	if it.page >= it.pages {
		return 0, nil, false, nil
	}
	it.s.mu.Lock()
	defer it.s.mu.Unlock()
	o, err := it.s.objectLocked(it.id)
	if err != nil {
		return 0, nil, false, err
	}
	if o.gen != it.gen {
		return 0, nil, false, fmt.Errorf("lsm: %w %d", pagestore.ErrUnknownObject, it.id)
	}
	p := it.page
	k := key{obj: it.id, gen: it.gen, page: p}
	buf, ok := it.s.mem[k]
	if !ok {
		buf, _ = it.s.probeLocked(k)
	}
	if buf == nil {
		buf = make([]byte, pagestore.PageSize)
	}
	it.page++
	return p, buf, true, nil
}

// Iter implements pagestore.Backend. The page count is snapshotted at
// creation, matching the heap iterator.
func (s *Store) Iter(id pagestore.ObjectID) (pagestore.Iterator, error) {
	if s.isDirect(id) {
		return s.direct.Iter(id)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	o, err := s.objectLocked(id)
	if err != nil {
		return nil, err
	}
	return &lsmIter{s: s, id: id, gen: o.gen, pages: o.pages}, nil
}

// DrainMaintenance implements pagestore.Maintainer.
func (s *Store) DrainMaintenance() []pagestore.Maint {
	s.mu.Lock()
	defer s.mu.Unlock()
	jobs := s.maint
	s.maint = nil
	return jobs
}

// Sync implements pagestore.Syncer: the memtable flushes and the
// manifest reaches disk, so everything absorbed before the call
// survives a crash. The WAL checkpoint calls this through the storage
// manager before writing its checkpoint record.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.Check(); err != nil {
		return err
	}
	if len(s.mem) == 0 {
		return nil
	}
	return s.flushLocked()
}

// OrphansDiscarded reports how many orphaned blocks the last Crash()
// recovery discarded.
func (s *Store) OrphansDiscarded() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.orphans
}

// MemtableLen reports the number of pages currently in the memtable.
func (s *Store) MemtableLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.mem)
}

// TablesPerLevel reports the live table count of each level.
func (s *Store) TablesPerLevel() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return []int{len(s.levels[0]), len(s.levels[1])}
}

// Version reports the current manifest version.
func (s *Store) Version() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.version
}

// allocLocked carves a contiguous n-block range, first-fit from the
// free list, else from the top of the address space.
func (s *Store) allocLocked(n int64) int64 {
	for i, f := range s.free {
		if f.blocks >= n {
			start := f.start
			if f.blocks == n {
				s.free = append(s.free[:i], s.free[i+1:]...)
			} else {
				s.free[i] = span{start: f.start + n, blocks: f.blocks - n}
			}
			return start
		}
	}
	start := s.nextLBA
	s.nextLBA += n
	return start
}

// freeLocked returns a range to the allocator, merging neighbours.
func (s *Store) freeLocked(start, blocks int64) {
	s.free = append(s.free, span{start: start, blocks: blocks})
	sort.Slice(s.free, func(i, j int) bool { return s.free[i].start < s.free[j].start })
	merged := s.free[:0]
	for _, f := range s.free {
		if n := len(merged); n > 0 && merged[n-1].start+merged[n-1].blocks == f.start {
			merged[n-1].blocks += f.blocks
		} else {
			merged = append(merged, f)
		}
	}
	s.free = merged
}

// flushLocked turns the memtable into an L0 SSTable, persists the
// manifest, queues the flush as maintenance, and triggers compaction
// when L0 is full.
func (s *Store) flushLocked() error {
	if len(s.mem) == 0 {
		return nil
	}
	entries := make([]entry, 0, len(s.mem))
	for k, d := range s.mem {
		entries = append(entries, entry{k: k, data: d})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].k.less(entries[j].k) })
	t, acc, err := s.writeTableLocked(entries)
	if err != nil {
		return err
	}
	s.levels[0] = append(s.levels[0], t)
	s.mem = make(map[key][]byte)
	macc, err := s.writeManifestLocked()
	if err != nil {
		return err
	}
	s.maint = append(s.maint, pagestore.Maint{
		Kind:     pagestore.MaintFlush,
		Accesses: []pagestore.Access{acc, macc},
	})
	if len(s.levels[0]) >= s.cfg.L0Tables {
		return s.compactLocked()
	}
	return nil
}

// compactLocked merges every L0 table with every overlapping L1 table
// into a single L1 run, dropping superseded versions and garbage
// generations, then persists the manifest and frees (TRIMs) the inputs.
func (s *Store) compactLocked() error {
	l0 := s.levels[0]
	if len(l0) == 0 {
		return nil
	}
	lo, hi := l0[0].minKey, l0[0].maxKey
	for _, t := range l0[1:] {
		if t.minKey.less(lo) {
			lo = t.minKey
		}
		if hi.less(t.maxKey) {
			hi = t.maxKey
		}
	}
	var keep, overlapped []*table
	for _, t := range s.levels[1] {
		if t.maxKey.less(lo) || hi.less(t.minKey) {
			keep = append(keep, t)
		} else {
			overlapped = append(overlapped, t)
		}
	}
	// Newest-first input order: L0 youngest to oldest, then L1. The
	// first version of a key wins; later (older) versions and keys from
	// dead generations are dropped — this is where deleted objects'
	// space is actually reclaimed.
	inputs := make([]*table, 0, len(l0)+len(overlapped))
	for i := len(l0) - 1; i >= 0; i-- {
		inputs = append(inputs, l0[i])
	}
	inputs = append(inputs, overlapped...)
	var accesses []pagestore.Access
	seen := make(map[key]bool)
	var entries []entry
	for _, t := range inputs {
		accesses = append(accesses, pagestore.Access{LBA: t.base, Blocks: int(t.blocks)})
		for i, k := range t.keys {
			if seen[k] {
				continue
			}
			seen[k] = true
			o := s.reg[k.obj]
			if o == nil || o.gen != k.gen {
				continue // dead generation: garbage-collect
			}
			entries = append(entries, entry{k: k, data: s.disk[t.dataStart+int64(i)]})
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].k.less(entries[j].k) })
	var out []*table
	if len(entries) > 0 {
		t, acc, err := s.writeTableLocked(entries)
		if err != nil {
			return err
		}
		accesses = append(accesses, acc)
		out = []*table{t}
	}
	s.levels[0] = nil
	merged := append(append([]*table{}, keep...), out...)
	sort.Slice(merged, func(i, j int) bool { return merged[i].minKey.less(merged[j].minKey) })
	s.levels[1] = merged
	macc, err := s.writeManifestLocked()
	if err != nil {
		return err
	}
	accesses = append(accesses, macc)
	// Only now — the manifest no longer references the inputs — is it
	// safe to free them. A crash before this point recovers the old
	// manifest with the inputs intact.
	trims := make([]pagestore.Extent, 0, len(inputs))
	for _, t := range inputs {
		for b := int64(0); b < t.blocks; b++ {
			delete(s.disk, t.base+b)
		}
		s.freeLocked(t.base, t.blocks)
		trims = append(trims, pagestore.Extent{Start: t.base, Pages: t.blocks})
	}
	sort.Slice(trims, func(i, j int) bool { return trims[i].Start < trims[j].Start })
	s.maint = append(s.maint, pagestore.Maint{
		Kind:     pagestore.MaintCompaction,
		Accesses: accesses,
		Trims:    trims,
	})
	return nil
}

// Crash implements pagestore.Volatile: volatile state (memtable,
// undrained maintenance, a fired Cut) is discarded and the tree is
// reloaded from the newest valid manifest slot. Blocks referenced by no
// live table or manifest slot are orphans from interrupted flushes or
// compactions; they are discarded and their space returns to the
// allocator. The registry survives by decree (see package doc).
func (s *Store) Crash() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.Revive()
	s.mem = make(map[key][]byte)
	s.maint = nil
	s.orphans = 0

	version, nextTableID, recs, ok := s.readManifestLocked()
	s.levels = [2][]*table{}
	if ok {
		s.version = version
		s.nextTableID = nextTableID
		for _, r := range recs {
			t, err := s.parseTableLocked(r.base, r.blocks)
			if err != nil {
				return fmt.Errorf("lsm: recovery: %v", err)
			}
			if r.level >= 2 {
				return fmt.Errorf("lsm: recovery: bad level %d", r.level)
			}
			s.levels[r.level] = append(s.levels[r.level], t)
		}
		sort.Slice(s.levels[1], func(i, j int) bool {
			return s.levels[1][i].minKey.less(s.levels[1][j].minKey)
		})
	} else {
		s.version = 0
		s.nextTableID = 0
	}

	// Rebuild the allocator from the live set and discard orphans.
	live := make([]span, 0, len(s.levels[0])+len(s.levels[1]))
	for _, lvl := range s.levels {
		for _, t := range lvl {
			live = append(live, span{start: t.base, blocks: t.blocks})
		}
	}
	sort.Slice(live, func(i, j int) bool { return live[i].start < live[j].start })
	inLive := func(lba int64) bool {
		i := sort.Search(len(live), func(i int) bool { return live[i].start+live[i].blocks > lba })
		return i < len(live) && live[i].start <= lba
	}
	for lba := range s.disk {
		if lba < dataBase {
			continue // manifest slots
		}
		if !inLive(lba) {
			delete(s.disk, lba)
			s.orphans++
		}
	}
	s.free = nil
	s.nextLBA = dataBase
	for _, sp := range live {
		if sp.start > s.nextLBA {
			s.free = append(s.free, span{start: s.nextLBA, blocks: sp.start - s.nextLBA})
		}
		s.nextLBA = sp.start + sp.blocks
	}
	return nil
}
