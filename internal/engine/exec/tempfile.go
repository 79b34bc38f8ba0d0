package exec

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"unsafe"

	"hstoragedb/internal/engine/catalog"
	"hstoragedb/internal/engine/policy"
	"hstoragedb/internal/pagestore"
)

// TempFile is a schema-less paged record file holding spilled tuples.
// Its lifetime follows Section 4.2.3: a generation phase (one write
// stream), a consumption phase (read streams), then deletion, at which
// point the storage manager TRIMs its blocks so the cache can evict them
// immediately.
type TempFile struct {
	ID    pagestore.ObjectID
	pages int64
	rows  int64

	buf     []byte
	count   uint16
	deleted bool
}

// CreateTemp allocates a new temporary file registered with the page
// store and tracked by the context.
func (c *Ctx) CreateTemp() (*TempFile, error) {
	id := c.Cat.NewTempID()
	if err := c.Mgr.Store().Create(id); err != nil {
		return nil, err
	}
	tf := &TempFile{ID: id}
	c.temps = append(c.temps, tf)
	return tf, nil
}

// ReclaimTemps deletes any temporary files still alive (normally
// operators delete their own temps at the end of consumption; this is the
// backstop that the "end of query" cleanup provides in PostgreSQL).
func (c *Ctx) ReclaimTemps() {
	for _, tf := range c.temps {
		if !tf.deleted {
			_ = c.DropTemp(tf)
		}
	}
	c.temps = c.temps[:0]
}

// DropTemp deletes a temporary file: buffered pages are invalidated (no
// write-back — the data is dead) and the freed extents are TRIMmed with
// the "non-caching and eviction" policy.
func (c *Ctx) DropTemp(tf *TempFile) error {
	if tf.deleted {
		return nil
	}
	tf.deleted = true
	c.Pool.Invalidate(tf.ID)
	return c.Mgr.DeleteObject(c.Clk, tf.ID)
}

const tempHeader = 2

// tempTag is the semantic tag for temp-file I/O: Rule 3 traffic.
func tempTag(id pagestore.ObjectID) policy.Tag {
	return policy.Tag{Object: id, Content: policy.Temp, Pattern: policy.Sequential}
}

// A temp page is a 2-byte record count followed by that many records,
// each a 2-byte length and a schema-less encoding of the tuple: a uvarint
// datum count, then per datum all three fields (varint I, 8-byte F,
// uvarint-prefixed S), so spilled tuples round-trip without schema
// information. minDatumLen is the shortest encoded datum.
const minDatumLen = 1 + 8 + 1

func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// recordLen is the exact number of bytes encodeRecord appends for t.
func recordLen(t catalog.Tuple) int {
	n := uvarintLen(uint64(len(t)))
	for _, d := range t {
		zigzag := uint64(d.I)<<1 ^ uint64(d.I>>63)
		n += uvarintLen(zigzag) + 8 + uvarintLen(uint64(len(d.S))) + len(d.S)
	}
	return n
}

func encodeRecord(dst []byte, t catalog.Tuple) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(t)))
	for _, d := range t {
		dst = binary.AppendVarint(dst, d.I)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(d.F))
		dst = binary.AppendUvarint(dst, uint64(len(d.S)))
		dst = append(dst, d.S...)
	}
	return dst
}

// decodeRecord parses src, one whole record, into dst (grown if too
// short). Strings alias src. Every length is checked against the bytes
// present, so a corrupt record is an error, never a panic or an
// allocation sized by its contents.
func decodeRecord(dst catalog.Tuple, src []byte) (catalog.Tuple, error) {
	n, off := binary.Uvarint(src)
	if off <= 0 || n > uint64(len(src)-off)/minDatumLen {
		return nil, fmt.Errorf("exec: corrupt temp record header")
	}
	if uint64(cap(dst)) < n {
		dst = make(catalog.Tuple, n)
	}
	dst = dst[:n]
	for i := range dst {
		v, w := binary.Varint(src[off:])
		if w <= 0 {
			return nil, fmt.Errorf("exec: corrupt temp datum (int)")
		}
		off += w
		if off+8 > len(src) {
			return nil, fmt.Errorf("exec: corrupt temp datum (float)")
		}
		d := catalog.Datum{I: v, F: math.Float64frombits(binary.LittleEndian.Uint64(src[off:]))}
		off += 8
		sl, w := binary.Uvarint(src[off:])
		if w <= 0 || sl > uint64(len(src)-off-w) {
			return nil, fmt.Errorf("exec: corrupt temp datum (string)")
		}
		off += w
		if sl > 0 {
			d.S = unsafe.String(&src[off], int(sl))
			off += int(sl)
		}
		dst[i] = d
	}
	if off != len(src) {
		return nil, fmt.Errorf("exec: corrupt temp record (%d trailing bytes)", len(src)-off)
	}
	return dst, nil
}

// Append adds one tuple to the temp file (generation phase). The record
// is encoded straight into the page buffer: nothing is allocated per
// record, and t is not kept.
func (tf *TempFile) Append(c *Ctx, t catalog.Tuple) error {
	if tf.deleted {
		return fmt.Errorf("exec: append to deleted temp file %d", tf.ID)
	}
	l := recordLen(t)
	need := 2 + l
	if need > pagestore.PageSize-tempHeader {
		return fmt.Errorf("exec: temp record of %d bytes exceeds page", l)
	}
	if tf.buf != nil && len(tf.buf)+need > pagestore.PageSize {
		if err := tf.flush(c); err != nil {
			return err
		}
	}
	if tf.buf == nil {
		tf.buf = pagestore.NewPage(tempHeader)
	}
	tf.buf = encodeRecord(binary.LittleEndian.AppendUint16(tf.buf, uint16(l)), t)
	tf.count++
	tf.rows++
	return nil
}

// flush hands the page buffer to the pool; the next Append starts a new
// one.
func (tf *TempFile) flush(c *Ctx) error {
	binary.LittleEndian.PutUint16(tf.buf[:2], tf.count)
	if err := c.Pool.Put(c.Clk, tempTag(tf.ID), tf.pages, tf.buf); err != nil {
		return err
	}
	tf.pages++
	tf.buf = nil
	tf.count = 0
	return nil
}

// Finish flushes the trailing partial page, ending the generation phase.
func (tf *TempFile) Finish(c *Ctx) error {
	if tf.count > 0 {
		return tf.flush(c)
	}
	return nil
}

// Rows reports the number of tuples appended.
func (tf *TempFile) Rows() int64 { return tf.rows }

// Pages reports the number of full pages written so far.
func (tf *TempFile) Pages() int64 { return tf.pages }

// TempReader iterates a temp file (consumption phase): a cursor on the
// current page's frame.
type TempReader struct {
	tf   *TempFile
	page int64
	rest []byte // the frame from the next record on
	left int    // records of the frame not yet returned

	// Two slabs, decoded into alternately, so that a returned row
	// survives exactly one further Next: Sort's merge has to advance the
	// winning run before it hands the winner out.
	slabs [2]catalog.Tuple
	flip  int
}

// NewReader starts a consumption pass over the file.
func (tf *TempFile) NewReader() *TempReader {
	return &TempReader{tf: tf}
}

// Next returns the next spilled tuple, decoded into a slab the reader
// reuses, with strings that alias the page frame. The tuple is valid
// until the second following call of Next on the same reader (one call
// longer than Operator.Next promises); whoever keeps it takes
// Tuple.Owned. Nothing is allocated per record.
func (r *TempReader) Next(c *Ctx) (catalog.Tuple, bool, error) {
	for r.left == 0 {
		if r.page >= r.tf.pages {
			return nil, false, nil
		}
		data, err := c.Pool.Get(c.Clk, tempTag(r.tf.ID), r.page)
		if err != nil {
			return nil, false, err
		}
		if len(data) < tempHeader {
			return nil, false, fmt.Errorf("exec: corrupt temp page header")
		}
		r.rest, r.left = data[tempHeader:], int(binary.LittleEndian.Uint16(data))
		r.page++
	}
	rec := r.rest
	if len(rec) < 2 || int(binary.LittleEndian.Uint16(rec)) > len(rec)-2 {
		return nil, false, fmt.Errorf("exec: corrupt temp record length")
	}
	l := int(binary.LittleEndian.Uint16(rec))
	r.flip ^= 1
	t, err := decodeRecord(r.slabs[r.flip], rec[2:2+l])
	if err != nil {
		return nil, false, err
	}
	r.slabs[r.flip] = t
	r.rest = rec[2+l:]
	r.left--
	return t, true, nil
}
