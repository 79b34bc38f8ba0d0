package wal

import (
	"bytes"
	"math"
	"testing"

	"hstoragedb/internal/pagestore"
)

// FuzzParseRecord holds the record format to three properties: every kind
// round-trips through appendRecord and parseRecord with the fields it was
// given; arbitrary bytes never panic and never consume more than they
// hold; a record cut short anywhere consumes nothing, so a torn tail ends
// the log.
func FuzzParseRecord(f *testing.F) {
	f.Add(int64(1), int64(1), uint32(0), int64(0), []byte(nil))
	f.Add(int64(7), int64(300), uint32(42), int64(99), bytes.Repeat([]byte{0xAB}, 200))
	f.Add(int64(-1), int64(math.MaxInt64), uint32(math.MaxUint32), int64(math.MinInt64), []byte{0, 1, 2})
	f.Add(int64(0), int64(-5), uint32(pagestore.LogBase), int64(-1), []byte{byte(KindPage), 0x80, 0x80})
	f.Fuzz(func(t *testing.T, txn, lsn int64, obj uint32, page int64, image []byte) {
		for _, k := range []Kind{KindBegin, KindCommit, KindAbort, KindPage, KindCheckpoint,
			KindPrepare, KindDecideCommit, KindDecideAbort} {
			want := Record{Kind: k, Txn: txn, LSN: LSN(lsn), Obj: pagestore.ObjectID(obj), Page: page, Image: image}
			enc := appendRecord(nil, want)
			got, n := parseRecord(append(enc, 0))
			if n != len(enc) || got.Kind != k || got.Txn != txn || got.LSN != want.LSN ||
				got.Obj != want.Obj || got.Page != page || !bytes.Equal(got.Image, image) {
				t.Fatalf("%v: parsed %+v in %d of %d bytes", k, got, n, len(enc))
			}
			for cut := range enc {
				if _, n := parseRecord(enc[:cut]); n != 0 {
					t.Fatalf("%v cut to %d of %d bytes consumed %d", k, cut, len(enc), n)
				}
			}
		}
		// The image as arbitrary log bytes.
		if r, n := parseRecord(image); n < 0 || n > len(image) || (n == 0) != (r.Kind == 0) {
			t.Fatalf("parsed %+v in %d of %d bytes", r, n, len(image))
		}
	})
}

// FuzzAppendRedo holds the page encoder to the byte-at-a-time reference
// (redo_ref_test.go): for any pre- and post-image, the same runs, the
// same fallback to the whole image, the same bytes; and the redo
// replayed onto the pre-image gives the post-image.
func FuzzAppendRedo(f *testing.F) {
	f.Add([]byte(nil), []byte(nil))
	f.Add([]byte{1, 2, 3}, []byte{1, 2, 3})
	f.Add(bytes.Repeat([]byte{0}, 64), append(bytes.Repeat([]byte{0}, 30), 1, 0, 0, 2, 0, 0, 0, 0, 3))
	f.Add(leafImage(40, -1), leafImage(40, 10))
	f.Add(bytes.Repeat([]byte{1, 2}, 50), bytes.Repeat([]byte{2, 2, 1}, 40))
	f.Fuzz(func(t *testing.T, pre, post []byte) {
		if len(post) > pagestore.PageSize {
			post = post[:pagestore.PageSize]
		}
		checkAgainstRef(t, pre, post)
		page, err := applyRedo(append([]byte(nil), pre...), appendRedo(nil, pre, post))
		if err != nil || !bytes.Equal(page, post) {
			t.Fatalf("replay onto the pre-image: %v, equal %v", err, bytes.Equal(page, post))
		}
	})
}
