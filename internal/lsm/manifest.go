package lsm

import (
	"encoding/binary"
	"hash/crc32"

	"hstoragedb/internal/pagestore"
)

// The manifest names the live SSTables. Two fixed slots at LBAs 0 and
// manifestSlotBlocks alternate (slot = version % 2): a writer never
// overwrites the newest valid manifest, so a torn slot write leaves the
// previous version intact. Recovery reads both slots, keeps those whose
// checksum verifies, and loads the higher version.
//
// Slot payload, CRC-protected:
//
//	version(8) nextTableID(8) numTables(4)
//	then per table: level(4) base(8) blocks(8)
//
// The object registry is deliberately absent — it is instantly durable
// (see the package doc) — and per-table key indexes and bloom filters
// are not duplicated here; they are reparsed from the tables' own
// blocks.

// manifestRec is one table record of a parsed manifest.
type manifestRec struct {
	level  int
	base   int64
	blocks int64
}

const manifestRecSize = 4 + 8 + 8

// writeManifestLocked persists the next manifest version into its slot,
// block by block under the kill rule, and returns the slot write access.
// A kill leaves the version bumped in memory only: the store is dead,
// and Crash() reloads the version from the slots.
func (s *Store) writeManifestLocked() (pagestore.Access, error) {
	s.version++
	var recs []manifestRec
	for level, lvl := range s.levels {
		for _, t := range lvl {
			recs = append(recs, manifestRec{level: level, base: t.base, blocks: t.blocks})
		}
	}
	payload := make([]byte, 20+len(recs)*manifestRecSize)
	binary.BigEndian.PutUint64(payload[0:], s.version)
	binary.BigEndian.PutUint64(payload[8:], s.nextTableID)
	binary.BigEndian.PutUint32(payload[16:], uint32(len(recs)))
	for i, r := range recs {
		off := 20 + i*manifestRecSize
		binary.BigEndian.PutUint32(payload[off:], uint32(r.level))
		binary.BigEndian.PutUint64(payload[off+4:], uint64(r.base))
		binary.BigEndian.PutUint64(payload[off+12:], uint64(r.blocks))
	}

	// Slot image: crc(4) length(4) payload, split into blocks.
	img := make([]byte, 8+len(payload))
	binary.BigEndian.PutUint32(img[0:], crc32.ChecksumIEEE(payload))
	binary.BigEndian.PutUint32(img[4:], uint32(len(payload)))
	copy(img[8:], payload)
	used := (int64(len(img)) + pagestore.PageSize - 1) / pagestore.PageSize
	if used > manifestSlotBlocks {
		// ~186k tables fit in a slot; unreachable at simulation scale.
		panic("lsm: manifest exceeds slot")
	}
	slotBase := int64(s.version%2) * manifestSlotBlocks
	for b := int64(0); b < used; b++ {
		if err := s.Pass(); err != nil {
			// A torn slot fails its checksum, so recovery falls back
			// to the other slot.
			return pagestore.Access{}, err
		}
		blk := make([]byte, pagestore.PageSize)
		end := (b + 1) * pagestore.PageSize
		if end > int64(len(img)) {
			end = int64(len(img))
		}
		copy(blk, img[b*pagestore.PageSize:end])
		s.disk[slotBase+b] = blk
	}
	// A shrunken image must not leave stale trailing blocks from a
	// longer prior use of this slot; they would not corrupt (crc covers
	// length) but would linger forever.
	for b := used; b < manifestSlotBlocks; b++ {
		delete(s.disk, slotBase+b)
	}
	return pagestore.Access{Write: true, LBA: slotBase, Blocks: int(used)}, nil
}

// readSlotLocked parses one manifest slot, reporting ok=false on a
// missing or corrupt image.
func (s *Store) readSlotLocked(slotBase int64) (version, nextTableID uint64, recs []manifestRec, ok bool) {
	first := s.disk[slotBase]
	if len(first) < 8 {
		return 0, 0, nil, false
	}
	want := binary.BigEndian.Uint32(first[0:])
	length := int64(binary.BigEndian.Uint32(first[4:]))
	if length < 20 || length > manifestSlotBlocks*pagestore.PageSize-8 {
		return 0, 0, nil, false
	}
	img := make([]byte, 0, 8+length)
	used := (8 + length + pagestore.PageSize - 1) / pagestore.PageSize
	for b := int64(0); b < used; b++ {
		blk := s.disk[slotBase+b]
		if blk == nil {
			return 0, 0, nil, false
		}
		img = append(img, blk...)
	}
	payload := img[8 : 8+length]
	if crc32.ChecksumIEEE(payload) != want {
		return 0, 0, nil, false
	}
	version = binary.BigEndian.Uint64(payload[0:])
	nextTableID = binary.BigEndian.Uint64(payload[8:])
	n := int(binary.BigEndian.Uint32(payload[16:]))
	if int64(20+n*manifestRecSize) > length {
		return 0, 0, nil, false
	}
	for i := 0; i < n; i++ {
		off := 20 + i*manifestRecSize
		recs = append(recs, manifestRec{
			level:  int(binary.BigEndian.Uint32(payload[off:])),
			base:   int64(binary.BigEndian.Uint64(payload[off+4:])),
			blocks: int64(binary.BigEndian.Uint64(payload[off+12:])),
		})
	}
	return version, nextTableID, recs, true
}

// readManifestLocked loads the newest valid manifest from the two
// slots, reporting ok=false when neither holds one (a store that never
// flushed).
func (s *Store) readManifestLocked() (version, nextTableID uint64, recs []manifestRec, ok bool) {
	for slot := int64(0); slot < 2; slot++ {
		v, nt, r, valid := s.readSlotLocked(slot * manifestSlotBlocks)
		if valid && (!ok || v > version) {
			version, nextTableID, recs, ok = v, nt, r, true
		}
	}
	return version, nextTableID, recs, ok
}
