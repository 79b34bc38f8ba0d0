// Package heap implements slotted heap files: the on-disk representation
// of regular tables and of temporary files. Pages are fetched through the
// buffer pool with the semantic tag of the requesting operator, so a
// sequential scan produces Rule 1 traffic and an RID fetch from an index
// scan produces Rule 2 traffic.
//
// Page layout: [uint16 tupleCount] then, per tuple, [uint16 length]
// followed by the tuple encoding (catalog.EncodeTuple). A length of
// 0xFFFF marks a deleted slot. Readers address slots in the page frame
// (walk the length headers, decode the one tuple wanted); writers build a
// new page image and Put it — frames are never written into.
//
// Tables grow by appenders. Bulk loads and refresh batches open fresh
// pages past the end (NewAppender); a transaction inserting a few rows
// resumes the last page instead (NewTailAppender), copying its used
// bytes into a new image, so a table's size follows its row bytes, not
// the number of transactions that inserted them.
package heap

import (
	"encoding/binary"
	"fmt"

	"hstoragedb/internal/engine/bufferpool"
	"hstoragedb/internal/engine/catalog"
	"hstoragedb/internal/engine/policy"
	"hstoragedb/internal/pagestore"
	"hstoragedb/internal/simclock"
)

const pageHeader = 2

// tombstone marks a deleted slot: the slot keeps its position (so RIDs of
// later slots remain valid) but carries no payload.
const tombstone = 0xFFFF

// File is a heap file bound to an object ID and schema.
type File struct {
	Object pagestore.ObjectID
	Schema catalog.Schema
	// Content distinguishes regular tables from temporary data; it rides
	// on every page tag.
	Content policy.ContentType

	all *catalog.Decoder // every column of Schema
}

// NewFile describes an existing (or about-to-be-created) heap file.
func NewFile(obj pagestore.ObjectID, schema catalog.Schema, content policy.ContentType) *File {
	return &File{Object: obj, Schema: schema, Content: content, all: catalog.NewDecoder(schema, nil)}
}

// Appender buffers tuples into pages and writes full pages through the
// buffer pool. Writes carry the file's content type, so appends to
// temporary files classify as temp requests and appends to tables as
// updates.
type Appender struct {
	f    *File
	pool *bufferpool.Pool
	clk  *simclock.Clock

	page    int64
	buf     []byte
	count   uint16
	base    uint16 // slots the page already held when the appender resumed it
	started bool
	rows    int64
}

// NewAppender starts appending at page `startPage` (pass the table's
// current page count to extend it, or 0 for a fresh file).
func (f *File) NewAppender(clk *simclock.Clock, pool *bufferpool.Pool, startPage int64) *Appender {
	return &Appender{f: f, pool: pool, clk: clk, page: startPage}
}

// NewTailAppender is NewAppender resuming the last of the file's `pages`
// pages instead of opening page `pages`, so a table grows by the bytes
// of its rows rather than by a page per appender. It reads page pages-1
// through the pool with a random tag — under a transaction that is a
// shared page lock, which the page's later Put upgrades, as in Update —
// and seeds the appender with the page's used bytes and slot count:
// slot numbers, tombstones included, are kept. The resumed page is
// written only if it gains a row; a row that does not fit moves on to
// page `pages` exactly as NewAppender's would. An empty file (pages ==
// 0) starts at page 0. On a table shared between transactions the
// caller holds the object's append lock (txn.Txn.LockAppend) until the
// transaction finishes, as for any appender; the tail page is then an
// ordinary page update under strict two-phase locking.
func (f *File) NewTailAppender(clk *simclock.Clock, pool *bufferpool.Pool, pages int64) (*Appender, error) {
	a := f.NewAppender(clk, pool, pages)
	if pages == 0 {
		return a, nil
	}
	tag := policy.Tag{Object: f.Object, Content: f.Content, Pattern: policy.Random}
	data, err := pool.Get(clk, tag, pages-1)
	if err != nil {
		return nil, err
	}
	c, err := openPage(data)
	if err != nil {
		return nil, err
	}
	for c.next < c.n {
		if _, _, err := c.advance(); err != nil {
			return nil, err
		}
	}
	a.page = pages - 1
	a.buf = append(pagestore.NewPage(0), data[:c.off]...)
	a.count = uint16(c.n)
	a.base = a.count
	a.started = true
	return a, nil
}

func (a *Appender) reset() {
	a.buf = pagestore.NewPage(pageHeader)
	a.count = 0
	a.base = 0
	a.started = true
}

// Append adds one tuple and returns its RID.
func (a *Appender) Append(t catalog.Tuple) (catalog.RID, error) {
	if !a.started {
		a.reset()
	}
	enc, err := catalog.EncodeTuple(nil, a.f.Schema, t)
	if err != nil {
		return catalog.RID{}, err
	}
	need := 2 + len(enc)
	if need > pagestore.PageSize-pageHeader {
		return catalog.RID{}, fmt.Errorf("heap: tuple of %d bytes exceeds page", len(enc))
	}
	if len(a.buf)+need > pagestore.PageSize {
		if err := a.flushPage(); err != nil {
			return catalog.RID{}, err
		}
	}
	rid := catalog.RID{Page: a.page, Slot: a.count}
	var l [2]byte
	binary.LittleEndian.PutUint16(l[:], uint16(len(enc)))
	a.buf = append(a.buf, l[:]...)
	a.buf = append(a.buf, enc...)
	a.count++
	a.rows++
	return rid, nil
}

// flushPage writes the current page through the buffer pool, if it
// gained a row, and extends the file's logical size, so a later appender
// starts past this page even while it is still only pool-resident
// (otherwise two appends between write-backs would hand out the same RIDs
// twice). Then it moves on to a fresh page.
func (a *Appender) flushPage() error {
	if a.count > a.base {
		binary.LittleEndian.PutUint16(a.buf[:2], a.count)
		tag := policy.Tag{Object: a.f.Object, Content: a.f.Content}
		if err := a.pool.Put(a.clk, tag, a.page, a.buf); err != nil {
			return err
		}
		if err := a.pool.Manager().Store().Extend(a.f.Object, a.page+1); err != nil {
			return err
		}
	}
	a.page++
	a.reset()
	return nil
}

// Close flushes the final partial page. Rows reports how many tuples were
// appended; Pages how many pages the file now spans.
func (a *Appender) Close() error {
	if a.started && a.count > a.base {
		return a.flushPage()
	}
	return nil
}

// Rows returns the number of tuples appended so far.
func (a *Appender) Rows() int64 { return a.rows }

// Pages returns the page count after Close.
func (a *Appender) Pages() int64 {
	if a.started && a.count > 0 {
		return a.page + 1
	}
	return a.page
}

// slots walks the slot directory of an encoded page in the frame, one
// 2-byte length header at a time, without decoding any tuple. Frames are
// immutable (see bufferpool.Get), so a cursor may be kept across pool
// calls: it keeps reading the page image it was opened on.
type slots struct {
	data []byte
	n    int // slots on the page
	next int // slot the next call to advance returns
	off  int // offset of that slot's length header
}

// openPage validates the page header.
func openPage(data []byte) (slots, error) {
	if len(data) < pageHeader {
		return slots{}, fmt.Errorf("heap: short page")
	}
	return slots{data: data, n: int(binary.LittleEndian.Uint16(data)), off: pageHeader}, nil
}

// advance returns the next slot's encoded tuple, aliasing the frame; a
// tombstone reads as dead with a nil payload. The caller checks
// c.next < c.n first. A header or payload running past the bytes present
// is an error, so a corrupt tupleCount or length fails instead of
// reading garbage.
func (c *slots) advance() (payload []byte, dead bool, err error) {
	if c.off+2 > len(c.data) {
		return nil, false, fmt.Errorf("heap: truncated tuple header at slot %d", c.next)
	}
	l := int(binary.LittleEndian.Uint16(c.data[c.off:]))
	c.off += 2
	c.next++
	if l == tombstone {
		return nil, true, nil
	}
	if c.off+l > len(c.data) {
		return nil, false, fmt.Errorf("heap: truncated tuple at slot %d", c.next-1)
	}
	payload = c.data[c.off : c.off+l]
	c.off += l
	return payload, false, nil
}

// slotAt walks to slot and returns its encoded tuple. live=false means
// no visible row: a tombstone, or a slot the page does not have.
func slotAt(data []byte, slot uint16) (payload []byte, live bool, err error) {
	c, err := openPage(data)
	if err != nil || int(slot) >= c.n {
		return nil, false, err
	}
	var dead bool
	for c.next <= int(slot) {
		if payload, dead, err = c.advance(); err != nil {
			return nil, false, err
		}
	}
	return payload, !dead, nil
}

// replaceSlot returns a fresh page image equal to data with rid's slot
// holding enc, or a tombstone when tomb is set; every other slot is
// copied as encoded, and the image holds exactly the used bytes, like an
// appender's. wasDead reports a slot that was already a tombstone, which
// is left alone (nil image).
func replaceSlot(data []byte, rid catalog.RID, enc []byte, tomb bool) (page []byte, wasDead bool, err error) {
	c, err := openPage(data)
	if err != nil {
		return nil, false, err
	}
	if int(rid.Slot) >= c.n {
		return nil, false, fmt.Errorf("heap: rid %v slot out of range (%d tuples)", rid, c.n)
	}
	// The walk runs to the last slot to find the end of the used bytes;
	// data[start:end] is the replaced entry, length header included.
	var start, end int
	for c.next < c.n {
		at := c.next == int(rid.Slot)
		if at {
			start = c.off
		}
		_, dead, err := c.advance()
		if err != nil {
			return nil, false, err
		}
		if at {
			end, wasDead = c.off, dead
		}
	}
	if wasDead {
		return nil, true, nil
	}
	used := c.off
	l := uint16(len(enc))
	if tomb {
		l, enc = tombstone, nil
	}
	size := used - (end - start) + 2 + len(enc)
	if size > pagestore.PageSize {
		return nil, false, fmt.Errorf("heap: rewritten page overflows (%d bytes)", size)
	}
	page = pagestore.NewPage(size)[:0]
	page = append(page, data[:start]...)
	page = binary.LittleEndian.AppendUint16(page, l)
	page = append(page, enc...)
	return append(page, data[end:used]...), false, nil
}

// Scanner iterates a heap file page by page with a sequential tag,
// decoding one tuple at a time from the frame.
type Scanner struct {
	f     *File
	pool  *bufferpool.Pool
	clk   *simclock.Clock
	pages int64

	page    int64 // next page to fetch
	cur     slots // cursor on page-1
	dec     *catalog.Decoder
	scratch catalog.Tuple
}

// NewScanner creates a full-file sequential scanner over `pages` pages
// that decodes every column.
func (f *File) NewScanner(clk *simclock.Clock, pool *bufferpool.Pool, pages int64) *Scanner {
	return &Scanner{f: f, pool: pool, clk: clk, pages: pages, dec: f.all}
}

// Decode makes NextBorrowed decode through d from the next row on (nil:
// every column). Its rows are a new scratch of d, so the row the last
// call returned stays as it was.
func (s *Scanner) Decode(d *catalog.Decoder) {
	if d == nil {
		d = s.f.all
	}
	s.dec, s.scratch = d, d.Scratch()
}

// Next returns the next tuple with its RID; ok=false at end of file. The
// tuple is owned by the caller.
func (s *Scanner) Next() (catalog.Tuple, catalog.RID, bool, error) {
	payload, rid, ok, err := s.nextSlot()
	if err != nil || !ok {
		return nil, catalog.RID{}, false, err
	}
	t, _, err := s.f.all.DecodeOwned(payload)
	return t, rid, err == nil, err
}

// NextBorrowed is Next without the copy: the tuple is the scanner's
// scratch and its strings alias the page frame, so it is valid only
// until the next call. Callers that keep a row take Tuple.Owned; a row
// they drop costs no allocation.
func (s *Scanner) NextBorrowed() (catalog.Tuple, catalog.RID, bool, error) {
	payload, rid, ok, err := s.nextSlot()
	if err != nil || !ok {
		return nil, catalog.RID{}, false, err
	}
	s.scratch, _, err = s.dec.Decode(s.scratch, payload)
	return s.scratch, rid, err == nil, err
}

// nextSlot advances to the next live slot, fetching pages as it goes, and
// returns the slot's encoded tuple in the frame.
func (s *Scanner) nextSlot() ([]byte, catalog.RID, bool, error) {
	for {
		for s.cur.next >= s.cur.n {
			if s.page >= s.pages {
				return nil, catalog.RID{}, false, nil
			}
			tag := policy.Tag{Object: s.f.Object, Content: s.f.Content, Pattern: policy.Sequential}
			data, err := s.pool.Get(s.clk, tag, s.page)
			if err != nil {
				return nil, catalog.RID{}, false, err
			}
			if s.cur, err = openPage(data); err != nil {
				return nil, catalog.RID{}, false, err
			}
			s.page++
		}
		rid := catalog.RID{Page: s.page - 1, Slot: uint16(s.cur.next)}
		payload, dead, err := s.cur.advance()
		if err != nil {
			return nil, catalog.RID{}, false, err
		}
		if !dead {
			return payload, rid, true, nil
		}
		// Deleted slot: keep scanning.
	}
}

// Fetch retrieves the tuple at rid with a random-access tag carrying the
// issuing operator's plan level. The tuple is owned by the caller; nil
// means the row is not visible.
func (f *File) Fetch(clk *simclock.Clock, pool *bufferpool.Pool, rid catalog.RID, level int) (catalog.Tuple, error) {
	payload, live, err := f.fetchSlot(clk, pool, rid, level)
	if err != nil || !live {
		return nil, err
	}
	t, _, err := f.all.DecodeOwned(payload)
	return t, err
}

// FetchBorrowed is Fetch decoding the columns of d (nil: every column)
// into the caller's scratch tuple, with strings aliasing the page frame:
// the result is valid until the scratch is decoded into again (see
// catalog.Decoder.Decode). It returns the scratch (a new one of d if it
// was short), or nil for a row that is not visible.
func (f *File) FetchBorrowed(clk *simclock.Clock, pool *bufferpool.Pool, rid catalog.RID, level int, d *catalog.Decoder, scratch catalog.Tuple) (catalog.Tuple, error) {
	payload, live, err := f.fetchSlot(clk, pool, rid, level)
	if err != nil || !live {
		return nil, err
	}
	if d == nil {
		d = f.all
	}
	t, _, err := d.Decode(scratch, payload)
	return t, err
}

// fetchSlot reads rid's page and returns the slot's encoded tuple in the
// frame. A missing slot is revalidation, not an error: an index entry can
// transiently point at a slot that is not (or no longer) materialized on
// the page — e.g. a probe racing an updater, or a post-crash scan over a
// file extension whose content died with the buffer pool — and a
// tombstone is a row deleted, e.g. by a concurrent RF2. Callers treat
// both as "no longer visible" and skip.
func (f *File) fetchSlot(clk *simclock.Clock, pool *bufferpool.Pool, rid catalog.RID, level int) (payload []byte, live bool, err error) {
	tag := policy.Tag{Object: f.Object, Content: f.Content, Pattern: policy.Random, Level: level}
	data, err := pool.Get(clk, tag, rid.Page)
	if err != nil {
		return nil, false, err
	}
	return slotAt(data, rid.Slot)
}

// Update rewrites the tuple at rid in place. The page write classifies as
// an update (Rule 4). The rewritten page must still fit; fixed-width
// updates (numeric columns) always do.
func (f *File) Update(clk *simclock.Clock, pool *bufferpool.Pool, rid catalog.RID, t catalog.Tuple, level int) error {
	tag := policy.Tag{Object: f.Object, Content: f.Content, Pattern: policy.Random, Level: level}
	data, err := pool.Get(clk, tag, rid.Page)
	if err != nil {
		return err
	}
	enc, err := catalog.EncodeTuple(nil, f.Schema, t)
	if err != nil {
		return err
	}
	page, wasDead, err := replaceSlot(data, rid, enc, false)
	if err != nil {
		return err
	}
	if wasDead {
		return fmt.Errorf("heap: rid %v updates a deleted tuple", rid)
	}
	writeTag := tag
	writeTag.Update = true
	return pool.Put(clk, writeTag, rid.Page, page)
}

// Delete tombstones the tuple at rid. The page write classifies as an
// update (Rule 4). It returns false if the slot was already deleted.
func (f *File) Delete(clk *simclock.Clock, pool *bufferpool.Pool, rid catalog.RID, level int) (bool, error) {
	tag := policy.Tag{Object: f.Object, Content: f.Content, Pattern: policy.Random, Level: level}
	data, err := pool.Get(clk, tag, rid.Page)
	if err != nil {
		return false, err
	}
	page, wasDead, err := replaceSlot(data, rid, nil, true)
	if err != nil || wasDead {
		return false, err
	}
	writeTag := tag
	writeTag.Update = true
	return true, pool.Put(clk, writeTag, rid.Page, page)
}
