package lsm

import (
	"encoding/binary"
	"fmt"
	"sort"

	"hstoragedb/internal/pagestore"
)

// An SSTable occupies one contiguous block range:
//
//	block 0                     header (magic, id, key count, section sizes)
//	blocks [1, 1+BB)            bloom filter bits
//	blocks [1+BB, 1+BB+IB)      index: the sorted 16-byte keys; entry i
//	                            locates data block dataStart+i
//	blocks [dataStart, end)     data: one raw page per entry
//
// The key layout (object, generation, page, big-endian) makes the sort
// order group each object's pages contiguously, so a table holding one
// object's flush reads back sequentially.

const (
	tableMagic  = uint64(0x4c534d5442310001) // "LSMTB1" + version
	keySize     = 16
	keysPerBlk  = pagestore.PageSize / keySize
	bloomProbes = 4
)

// entry is one (key, page content) pair bound for an SSTable. data is a
// PageSize block from the memtable or an input table, shared, not copied.
type entry struct {
	k    key
	data []byte
}

// table is the in-memory handle of one on-disk SSTable: its placement
// plus the decoded key index and bloom filter. Rebuilt from the disk
// image on recovery.
type table struct {
	id     uint64
	base   int64
	blocks int64

	bloomStart  int64
	bloomBlocks int64
	indexStart  int64
	dataStart   int64

	keys           []key
	bloom          []byte
	minKey, maxKey key
}

func encodeKey(b []byte, k key) {
	binary.BigEndian.PutUint32(b[0:], uint32(k.obj))
	binary.BigEndian.PutUint32(b[4:], k.gen)
	binary.BigEndian.PutUint64(b[8:], uint64(k.page))
}

func decodeKey(b []byte) key {
	return key{
		obj:  pagestore.ObjectID(binary.BigEndian.Uint32(b[0:])),
		gen:  binary.BigEndian.Uint32(b[4:]),
		page: int64(binary.BigEndian.Uint64(b[8:])),
	}
}

// bloomHashes derives the double-hashing pair for a key (FNV-1a, then
// one extra round over the first hash; h2 forced odd so the probe
// sequence walks the whole filter).
func bloomHashes(k key) (uint64, uint64) {
	var b [keySize]byte
	encodeKey(b[:], k)
	const offset, prime = 14695981039346656037, 1099511628211
	h1 := uint64(offset)
	for _, c := range b {
		h1 ^= uint64(c)
		h1 *= prime
	}
	h2 := (h1 ^ offset) * prime
	return h1, h2 | 1
}

// bloomMaybe reports whether the filter may contain k.
func (t *table) bloomMaybe(k key) bool {
	bits := uint64(len(t.bloom)) * 8
	h1, h2 := bloomHashes(k)
	for i := uint64(0); i < bloomProbes; i++ {
		bit := (h1 + i*h2) % bits
		if t.bloom[bit/8]&(1<<(bit%8)) == 0 {
			return false
		}
	}
	return true
}

func bloomAdd(filter []byte, k key) {
	bits := uint64(len(filter)) * 8
	h1, h2 := bloomHashes(k)
	for i := uint64(0); i < bloomProbes; i++ {
		bit := (h1 + i*h2) % bits
		filter[bit/8] |= 1 << (bit % 8)
	}
}

// bloomBlockOf returns the LBA of the bloom block a probe of k touches
// (the block holding the first probed bit).
func (t *table) bloomBlockOf(k key) int64 {
	bits := uint64(len(t.bloom)) * 8
	h1, _ := bloomHashes(k)
	return t.bloomStart + int64((h1%bits)/(pagestore.PageSize*8))
}

// indexBlockOf returns the LBA of the index block holding entry i.
func (t *table) indexBlockOf(i int) int64 {
	if i >= len(t.keys) {
		i = len(t.keys) - 1
	}
	if i < 0 {
		i = 0
	}
	return t.indexStart + int64(i/keysPerBlk)
}

// find binary-searches the key index.
func (t *table) find(k key) (int, bool) {
	i := sort.Search(len(t.keys), func(i int) bool { return !t.keys[i].less(k) })
	return i, i < len(t.keys) && t.keys[i] == k
}

// writeTableLocked allocates and writes a new SSTable for the sorted
// entries, block by block under the kill rule, and returns its handle plus
// the single sequential write access it cost. Each data block is the
// entry's slice itself: stored blocks are immutable (see the package
// doc), so a flush or compaction moves a page without copying it.
func (s *Store) writeTableLocked(entries []entry) (*table, pagestore.Access, error) {
	n := len(entries)
	bloomBits := int64(n * bloomBitsPerKey)
	if bloomBits < 64 {
		bloomBits = 64
	}
	bloomBlocks := (bloomBits + pagestore.PageSize*8 - 1) / (pagestore.PageSize * 8)
	indexBlocks := (int64(n)*keySize + pagestore.PageSize - 1) / pagestore.PageSize
	if indexBlocks == 0 {
		indexBlocks = 1
	}
	total := 1 + bloomBlocks + indexBlocks + int64(n)
	base := s.allocLocked(total)

	t := &table{
		id:          s.nextTableID,
		base:        base,
		blocks:      total,
		bloomStart:  base + 1,
		bloomBlocks: bloomBlocks,
		indexStart:  base + 1 + bloomBlocks,
		dataStart:   base + 1 + bloomBlocks + indexBlocks,
		keys:        make([]key, n),
		bloom:       make([]byte, bloomBlocks*pagestore.PageSize),
		minKey:      entries[0].k,
		maxKey:      entries[n-1].k,
	}
	s.nextTableID++
	for i, e := range entries {
		t.keys[i] = e.k
		bloomAdd(t.bloom, e.k)
	}

	blocks := make([][]byte, 0, total)
	header := make([]byte, pagestore.PageSize)
	binary.BigEndian.PutUint64(header[0:], tableMagic)
	binary.BigEndian.PutUint64(header[8:], t.id)
	binary.BigEndian.PutUint64(header[16:], uint64(n))
	binary.BigEndian.PutUint64(header[24:], uint64(bloomBlocks))
	binary.BigEndian.PutUint64(header[32:], uint64(indexBlocks))
	blocks = append(blocks, header)
	for b := int64(0); b < bloomBlocks; b++ {
		blocks = append(blocks, t.bloom[b*pagestore.PageSize:(b+1)*pagestore.PageSize])
	}
	idx := make([]byte, indexBlocks*pagestore.PageSize)
	for i, e := range entries {
		encodeKey(idx[i*keySize:], e.k)
	}
	for b := int64(0); b < indexBlocks; b++ {
		blocks = append(blocks, idx[b*pagestore.PageSize:(b+1)*pagestore.PageSize])
	}
	for _, e := range entries {
		blocks = append(blocks, e.data)
	}

	for i, blk := range blocks {
		if err := s.Pass(); err != nil {
			// The blocks already written stay as orphans for
			// recovery to discard.
			return nil, pagestore.Access{}, err
		}
		s.disk[base+int64(i)] = blk
	}
	return t, pagestore.Access{Write: true, LBA: base, Blocks: int(total)}, nil
}

// parseTableLocked rebuilds a table handle from its on-disk image.
func (s *Store) parseTableLocked(base, blocks int64) (*table, error) {
	header := s.disk[base]
	if len(header) < 40 || binary.BigEndian.Uint64(header[0:]) != tableMagic {
		return nil, fmt.Errorf("bad table header at lba %d", base)
	}
	n := int64(binary.BigEndian.Uint64(header[16:]))
	bloomBlocks := int64(binary.BigEndian.Uint64(header[24:]))
	indexBlocks := int64(binary.BigEndian.Uint64(header[32:]))
	if 1+bloomBlocks+indexBlocks+n != blocks {
		return nil, fmt.Errorf("table at lba %d: inconsistent geometry", base)
	}
	t := &table{
		id:          binary.BigEndian.Uint64(header[8:]),
		base:        base,
		blocks:      blocks,
		bloomStart:  base + 1,
		bloomBlocks: bloomBlocks,
		indexStart:  base + 1 + bloomBlocks,
		dataStart:   base + 1 + bloomBlocks + indexBlocks,
		keys:        make([]key, n),
		bloom:       make([]byte, bloomBlocks*pagestore.PageSize),
	}
	for b := int64(0); b < bloomBlocks; b++ {
		copy(t.bloom[b*pagestore.PageSize:], s.disk[t.bloomStart+b])
	}
	idx := make([]byte, indexBlocks*pagestore.PageSize)
	for b := int64(0); b < indexBlocks; b++ {
		copy(idx[b*pagestore.PageSize:], s.disk[t.indexStart+b])
	}
	for i := int64(0); i < n; i++ {
		t.keys[i] = decodeKey(idx[i*keySize:])
	}
	if n > 0 {
		t.minKey, t.maxKey = t.keys[0], t.keys[n-1]
	}
	return t, nil
}
