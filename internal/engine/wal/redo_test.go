package wal

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"hstoragedb/internal/engine/policy"
	"hstoragedb/internal/pagestore"
	"hstoragedb/internal/simclock"
)

// edit returns a copy of img with a few random byte runs rewritten, the
// shape of a row insert or update on a page.
func edit(rng *rand.Rand, img []byte) []byte {
	out := append([]byte(nil), img...)
	if len(out) == 0 {
		return out
	}
	for n := 1 + rng.Intn(4); n > 0; n-- {
		off := rng.Intn(len(out))
		end := min(len(out), off+1+rng.Intn(200))
		rng.Read(out[off:end])
	}
	return out
}

// resize grows img with random bytes or truncates it.
func resize(rng *rand.Rand, img []byte, size int) []byte {
	if size <= len(img) {
		return append([]byte(nil), img[:size]...)
	}
	tail := make([]byte, size-len(img))
	rng.Read(tail)
	return append(append([]byte(nil), img...), tail...)
}

// shift returns img with a few random bytes inserted at a random offset
// and the tail moved right (a B-tree insert into the middle of a leaf),
// keeping the length.
func shift(rng *rand.Rand, img []byte) []byte {
	if len(img) == 0 {
		return img
	}
	at, n := rng.Intn(len(img)), 1+rng.Intn(16)
	ins := make([]byte, n)
	rng.Read(ins)
	out := append(append(append([]byte(nil), img[:at]...), ins...), img[at:]...)
	return out[:len(img)]
}

// replay applies redos in order onto a private copy of base.
func replay(t *testing.T, base []byte, redos [][]byte) []byte {
	t.Helper()
	page := append(make([]byte, 0, pagestore.PageSize), base...)
	for i, r := range redos {
		var err error
		if page, err = applyRedo(page, r); err != nil {
			t.Fatalf("redo %d: %v", i, err)
		}
	}
	return page
}

// TestRedoRoundTrip: a redo replayed onto its own pre-image gives the
// post-image, for pages that keep, grow or lose length, and for a page
// with no pre-image; runs never take more room than the whole image.
func TestRedoRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		pre := make([]byte, rng.Intn(pagestore.PageSize+1))
		rng.Read(pre)
		var post []byte
		name := []string{"equal length", "grown", "truncated", "nil pre", "rewritten"}[i%5]
		switch name {
		case "equal length":
			post = edit(rng, pre)
		case "grown":
			post = edit(rng, resize(rng, pre, len(pre)+rng.Intn(pagestore.PageSize-len(pre)+1)))
		case "truncated":
			post = edit(rng, resize(rng, pre, rng.Intn(len(pre)+1)))
		case "nil pre":
			post, pre = edit(rng, pre), nil
		case "rewritten":
			post = make([]byte, len(pre))
			rng.Read(post)
		}
		redo := appendRedo(nil, pre, post)
		if got := replay(t, pre, [][]byte{redo}); !bytes.Equal(got, post) {
			t.Fatalf("case %d (%s): %d-byte pre, %d-byte post: replay differs", i, name, len(pre), len(post))
		}
		if whole := appendRedo(nil, nil, post); len(redo) > len(whole) {
			t.Fatalf("case %d (%s): redo of %d bytes, whole image %d", i, name, len(redo), len(whole))
		}
		if pre == nil && !wholeImage(redo) {
			t.Fatalf("case %d: a page with no pre-image was not logged whole", i)
		}
	}
}

// TestRedoIsSmall: one row's worth of change to an 8 KB page costs about
// the bytes that changed, not the page.
func TestRedoIsSmall(t *testing.T) {
	pre := bytes.Repeat([]byte{0x5A}, pagestore.PageSize)
	post := append([]byte(nil), pre...)
	copy(post[2:4], []byte{9, 9})                       // slot count
	copy(post[100:104], []byte{1, 2, 3, 4})             // slot entry
	copy(post[7000:7120], bytes.Repeat([]byte{7}, 120)) // the row
	redo := appendRedo(nil, pre, post)
	if len(redo) > 2+4+120+16 {
		t.Fatalf("redo of a %d-byte change is %d bytes", 2+4+120, len(redo))
	}
	if wholeImage(redo) {
		t.Fatal("a small change was logged as a whole image")
	}
}

// TestRedoBaseIndependence is the recovery contract: a page's redos, each
// against the version its transaction first touched, replayed in order
// onto any of the page's versions give the final one — whichever version
// reached the store before the crash. Versions grow, shrink, shift and
// are edited in place; the store pads every page it holds to PageSize.
func TestRedoBaseIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 300; trial++ {
		v := make([]byte, 1+rng.Intn(pagestore.PageSize))
		rng.Read(v)
		versions := [][]byte{v}
		var redos [][]byte
		for n := 2 + rng.Intn(8); n > 0; n-- {
			var next []byte
			switch rng.Intn(4) {
			case 0:
				next = edit(rng, v)
			case 1:
				next = shift(rng, v)
			case 2:
				next = resize(rng, v, rng.Intn(pagestore.PageSize+1))
			default:
				next = edit(rng, resize(rng, v, rng.Intn(pagestore.PageSize+1)))
			}
			redos = append(redos, appendRedo(nil, v, next))
			versions = append(versions, next)
			v = next
		}
		for j, base := range versions {
			stored := resize(rng, base, pagestore.PageSize)
			clear(stored[len(base):])
			for _, b := range [][]byte{base, stored} {
				if got := replay(t, b, redos); !bytes.Equal(got, v) {
					t.Fatalf("trial %d: replay onto version %d of %d (%d bytes) differs from the final image",
						trial, j, len(versions)-1, len(b))
				}
			}
		}
	}
}

// TestRedoRejectsGarbage: a payload that does not parse, or writes past
// the page it sizes, is an error, not a panic.
func TestRedoRejectsGarbage(t *testing.T) {
	for _, redo := range [][]byte{
		nil,
		{0x80},                 // truncated size
		{10, 0},                // truncated run header
		{10, 0, 5, 1, 2},       // run longer than its bytes
		{10, 8, 4, 1, 2, 3, 4}, // run past the page end
	} {
		if _, err := applyRedo(nil, redo); err == nil {
			t.Errorf("applyRedo(%v) accepted garbage", redo)
		}
	}
}

// TestRedoReadsBaseOnce: recovery over several committed deltas to one
// page reads the page once (its first record is a delta) and writes it
// once, and a page whose first record is a whole image is not read.
func TestRedoReadsBaseOnce(t *testing.T) {
	store := pagestore.NewStore()
	mgr := testMgr(t, store)
	var clk simclock.Clock
	cfg := Config{SegmentPages: 4}
	m, err := New(&clk, mgr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Create(5); err != nil {
		t.Fatal(err)
	}
	v0 := bytes.Repeat([]byte{1}, pagestore.PageSize)
	if _, err := store.Write(5, 0, v0); err != nil {
		t.Fatal(err)
	}
	pre := v0
	for i := 0; i < 4; i++ {
		post := append([]byte(nil), pre...)
		post[100*i] = byte(10 + i)
		id := m.NextTxnID()
		if _, err := m.Append(&clk, Record{Txn: id, Kind: KindPage, Obj: 5, Page: 0, Image: post, Pre: pre}); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if _, err := m.Append(&clk, Record{Txn: id, Kind: KindPage, Obj: 5, Page: 1, Image: v0}); err != nil {
				t.Fatal(err)
			}
		}
		lsn, err := m.Append(&clk, Record{Txn: id, Kind: KindCommit})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Flush(&clk, lsn); err != nil {
			t.Fatal(err)
		}
		pre = post
	}
	mgr2 := testMgr(t, store)
	var clk2 simclock.Clock
	_, stats, err := Recover(&clk2, mgr2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.PagesApplied != 2 {
		t.Fatalf("pages applied %d, want 2", stats.PagesApplied)
	}
	if got, _, _ := store.Read(5, 0); !bytes.Equal(got, pre) {
		t.Fatal("page 0 is not the final image")
	}
	ts := mgr2.TypeStats()
	if reads, writes := ts[policy.RandomRequest].Blocks, ts[policy.UpdateRequest].Blocks; reads != 1 || writes != 2 {
		t.Fatalf("redo read %d data pages and wrote %d, want 1 and 2", reads, writes)
	}
}

// BenchmarkAppendRedo is the encoder alone, one 8 KB page's redo per
// op, for the page changes a commit logs: a few sparse byte runs, a
// B-tree leaf with an entry inserted a quarter of the way in (the tail
// shifts), a heap page with a row appended (the image grows), an
// unchanged page and a page with no pre-image. redo_bytes is the
// record's payload.
func BenchmarkAppendRedo(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	page := make([]byte, pagestore.PageSize)
	rng.Read(page)
	sparse := append([]byte(nil), page...)
	rng.Read(sparse[2:4])
	rng.Read(sparse[400:404])
	rng.Read(sparse[6000:6120])
	// A heap page: a tuple count, then length-prefixed rows of 60-140
	// bytes up to about half the page; the append adds one row.
	heapPre := []byte{0, 0}
	for rows := 0; len(heapPre) < pagestore.PageSize/2; rows++ {
		row := make([]byte, 60+rng.Intn(81))
		rng.Read(row)
		heapPre = binary.LittleEndian.AppendUint16(heapPre, uint16(len(row)))
		heapPre = append(heapPre, row...)
		binary.LittleEndian.PutUint16(heapPre, uint16(rows+1))
	}
	heapPost := append([]byte(nil), heapPre...)
	binary.LittleEndian.PutUint16(heapPost, binary.LittleEndian.Uint16(heapPre)+1)
	row := make([]byte, 100)
	rng.Read(row)
	heapPost = append(binary.LittleEndian.AppendUint16(heapPost, uint16(len(row))), row...)
	leaf := leafCap - 1
	for _, c := range []struct {
		name      string
		pre, post []byte
	}{
		{"sparse", page, sparse},
		{"shifted-leaf", leafImage(leaf, -1), leafImage(leaf, leaf/4)},
		{"heap-append", heapPre, heapPost},
		{"identical", page, append([]byte(nil), page...)},
		{"nil-pre", nil, page},
	} {
		b.Run(c.name, func(b *testing.B) {
			var dst []byte
			b.SetBytes(int64(len(c.post)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = appendRedo(dst[:0], c.pre, c.post)
			}
			b.ReportMetric(float64(len(dst)), "redo_bytes")
		})
	}
}

// BenchmarkAppendPageDelta is the commit path's encoding cost: one 8 KB
// page record whose final image differs from its first-touch image by a
// row-sized change, appended inside the log's critical section.
func BenchmarkAppendPageDelta(b *testing.B) {
	store := pagestore.NewStore()
	mgr := testMgr(b, store)
	var clk simclock.Clock
	m, err := New(&clk, mgr, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	pre := make([]byte, pagestore.PageSize)
	rng.Read(pre)
	post := append([]byte(nil), pre...)
	rng.Read(post[2:4])
	rng.Read(post[400:404])
	rng.Read(post[6000:6120])
	m.Lock(&clk)
	defer m.Unlock()
	b.SetBytes(pagestore.PageSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Append(&clk, Record{Txn: 1, Kind: KindPage, Obj: 1, Page: int64(i), Image: post, Pre: pre}); err != nil {
			b.Fatal(err)
		}
	}
}
