package exec

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"hstoragedb/internal/dss"
	"hstoragedb/internal/engine/bufferpool"
	"hstoragedb/internal/engine/catalog"
	"hstoragedb/internal/engine/policy"
	"hstoragedb/internal/engine/storagemgr"
	"hstoragedb/internal/hybrid"
	"hstoragedb/internal/pagestore"
	"hstoragedb/internal/simclock"
)

// tempCtx builds a minimal execution context for temp-file tests.
func tempCtx(t testing.TB, bpPages int) *Ctx {
	t.Helper()
	store := pagestore.NewStore()
	sys, err := hybrid.New(hybrid.Config{Mode: hybrid.HStorage, CacheBlocks: 256})
	if err != nil {
		t.Fatal(err)
	}
	mgr := storagemgr.New(store, sys, policy.NewAssignmentTable(dss.DefaultPolicySpace()))
	return &Ctx{
		Clk:  &simclock.Clock{},
		Pool: bufferpool.New(mgr, bpPages),
		Cat:  catalog.New(),
		Mgr:  mgr,
	}
}

func TestTempFileRoundTrip(t *testing.T) {
	ctx := tempCtx(t, 4)
	tf, err := ctx.CreateTemp()
	if err != nil {
		t.Fatal(err)
	}
	const n = 5000
	for i := 0; i < n; i++ {
		tup := catalog.Tuple{
			catalog.IntDatum(int64(i)),
			catalog.FloatDatum(float64(i) / 7),
			catalog.StringDatum(fmt.Sprintf("row-%d", i)),
		}
		if err := tf.Append(ctx, tup); err != nil {
			t.Fatal(err)
		}
	}
	if err := tf.Finish(ctx); err != nil {
		t.Fatal(err)
	}
	if tf.Rows() != n {
		t.Fatalf("rows %d", tf.Rows())
	}
	if tf.Pages() < 2 {
		t.Fatalf("pages %d, expected a multi-page spill", tf.Pages())
	}

	r := tf.NewReader()
	for i := 0; i < n; i++ {
		tup, ok, err := r.Next(ctx)
		if err != nil || !ok {
			t.Fatalf("row %d: ok=%v err=%v", i, ok, err)
		}
		if tup[0].I != int64(i) || tup[2].S != fmt.Sprintf("row-%d", i) {
			t.Fatalf("row %d corrupted: %v", i, tup)
		}
	}
	if _, ok, _ := r.Next(ctx); ok {
		t.Fatal("reader returned rows past the end")
	}
	if err := ctx.DropTemp(tf); err != nil {
		t.Fatal(err)
	}
}

// TestTempFinishAllocatesNoBuffer: Finish hands the last page to the
// pool and starts no new one. Each run finishes the same one-record page
// into a frame entry the pool recycles, so a run allocates nothing.
func TestTempFinishAllocatesNoBuffer(t *testing.T) {
	ctx := tempCtx(t, 4)
	tf, err := ctx.CreateTemp()
	if err != nil {
		t.Fatal(err)
	}
	if err := tf.Append(ctx, catalog.Tuple{catalog.IntDatum(1)}); err != nil {
		t.Fatal(err)
	}
	page, count := tf.buf, tf.count
	finish := func() {
		tf.buf, tf.count, tf.pages = page, count, 0
		if err := tf.Finish(ctx); err != nil {
			t.Fatal(err)
		}
		if tf.pages != 1 {
			t.Fatalf("Finish wrote %d pages", tf.pages)
		}
		ctx.Pool.Invalidate(tf.ID)
	}
	finish()
	if n := testing.AllocsPerRun(100, finish); n != 0 {
		t.Errorf("finishing a page allocates %.2f times, want 0", n)
	}
}

func TestTempFileSecondReaderIndependent(t *testing.T) {
	ctx := tempCtx(t, 8)
	tf, _ := ctx.CreateTemp()
	for i := 0; i < 100; i++ {
		_ = tf.Append(ctx, catalog.Tuple{catalog.IntDatum(int64(i))})
	}
	_ = tf.Finish(ctx)
	r1, r2 := tf.NewReader(), tf.NewReader()
	a, _, _ := r1.Next(ctx)
	b, _, _ := r2.Next(ctx)
	if a[0].I != b[0].I {
		t.Fatal("readers disagree on the first row")
	}
}

func TestDropTempIdempotentAndAppendAfterDeleteFails(t *testing.T) {
	ctx := tempCtx(t, 4)
	tf, _ := ctx.CreateTemp()
	_ = tf.Append(ctx, catalog.Tuple{catalog.IntDatum(1)})
	_ = tf.Finish(ctx)
	if err := ctx.DropTemp(tf); err != nil {
		t.Fatal(err)
	}
	if err := ctx.DropTemp(tf); err != nil {
		t.Fatalf("second drop errored: %v", err)
	}
	if err := tf.Append(ctx, catalog.Tuple{catalog.IntDatum(2)}); err == nil {
		t.Fatal("append to deleted temp accepted")
	}
}

func TestReclaimTempsBackstop(t *testing.T) {
	ctx := tempCtx(t, 4)
	for i := 0; i < 3; i++ {
		tf, _ := ctx.CreateTemp()
		_ = tf.Append(ctx, catalog.Tuple{catalog.IntDatum(int64(i))})
		_ = tf.Finish(ctx)
	}
	ctx.ReclaimTemps()
	for _, id := range ctx.Mgr.Store().Objects() {
		if catalog.IsTemp(id) {
			t.Fatalf("temp %d survived ReclaimTemps", id)
		}
	}
}

// Property: the schema-less datum codec round-trips arbitrary values, and
// recordLen predicts the encoded length exactly.
func TestSchemalessCodecProperty(t *testing.T) {
	f := func(i int64, fl float64, s string) bool {
		if fl != fl { // NaN
			fl = 0
		}
		in := catalog.Tuple{{I: i, F: fl, S: s}, {I: -i}, {S: s + s}}
		enc := encodeRecord(make([]byte, 0, 8), in)
		out, err := decodeRecord(nil, enc)
		if err != nil || len(enc) != recordLen(in) || len(out) != len(in) {
			return false
		}
		for k := range in {
			if in[k] != out[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestChargeTuples(t *testing.T) {
	ctx := tempCtx(t, 4)
	ctx.CPUPerTuple = 100
	ctx.ChargeTuples(10)
	if ctx.Clk.Now() != 1000 {
		t.Fatalf("clock %v", ctx.Clk.Now())
	}
	if ctx.Tuples != 10 {
		t.Fatalf("tuples %d", ctx.Tuples)
	}
	ctx.ChargeTuples(-5)
	if ctx.Tuples != 10 {
		t.Fatal("negative charge counted")
	}
}

// tempPageOf is the page image a TempFile would flush for rows.
func tempPageOf(t testing.TB, rows ...catalog.Tuple) []byte {
	t.Helper()
	tf := &TempFile{}
	for _, r := range rows {
		if err := tf.Append(nil, r); err != nil { // one page: nothing is flushed
			t.Fatal(err)
		}
	}
	if tf.buf == nil {
		return []byte{0, 0}
	}
	binary.LittleEndian.PutUint16(tf.buf, tf.count)
	return tf.buf
}

func sameRow(a, b catalog.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].I != b[i].I || math.Float64bits(a[i].F) != math.Float64bits(b[i].F) || a[i].S != b[i].S {
			return false
		}
	}
	return true
}

// FuzzTempPage feeds arbitrary bytes to a TempReader as a temp file's
// only page. Reading it either fails with an error or yields rows that
// survive a second trip through Append and the reader; it never panics
// and never allocates by a length it has not checked against the bytes
// present. The seed corpus holds real pages: empty, full, one record of
// the largest size a page takes, cut at every byte of a two-datum
// record (so inside and at the edge of every field), and with a record
// count and a datum count beyond the bytes present.
func FuzzTempPage(f *testing.F) {
	row := func(i int) catalog.Tuple {
		return catalog.Tuple{catalog.IntDatum(int64(i)), catalog.FloatDatum(float64(i) / 3), catalog.StringDatum(fmt.Sprintf("row-%d", i))}
	}
	f.Add(tempPageOf(f))
	var full []catalog.Tuple
	for i, size := 0, tempHeader; size+2+recordLen(row(i)) <= pagestore.PageSize; i++ {
		full = append(full, row(i))
		size += 2 + recordLen(row(i))
	}
	f.Add(tempPageOf(f, full...))
	// Datum count, int, float, 2-byte string length, string.
	maxStr := pagestore.PageSize - tempHeader - 2 - (1 + 1 + 8 + 2)
	big := tempPageOf(f, catalog.Tuple{catalog.StringDatum(strings.Repeat("m", maxStr))})
	if len(big) != pagestore.PageSize {
		f.Fatalf("max-size record fills %d of %d bytes", len(big), pagestore.PageSize)
	}
	f.Add(big)
	one := tempPageOf(f, catalog.Tuple{{I: 1 << 40, F: 2.5, S: "abc"}, {I: -7, S: "z"}})
	for cut := 1; cut < len(one); cut++ {
		f.Add(one[:cut])
	}
	f.Add(append([]byte{0xFF, 0x7F}, one[tempHeader:]...))                  // record count beyond the bytes present
	f.Add(append([]byte{1, 0, 0xFF, 0x1F, 0xFF, 0xFF, 0xFF, 0x7F}, one...)) // datum count in the hundreds of millions

	ctx := tempCtx(f, 4)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > pagestore.PageSize {
			data = data[:pagestore.PageSize]
		}
		read := func(page []byte) ([]catalog.Tuple, error) {
			tf, err := ctx.CreateTemp()
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = ctx.DropTemp(tf) }()
			if err := ctx.Pool.Put(ctx.Clk, tempTag(tf.ID), 0, page); err != nil {
				t.Fatal(err)
			}
			tf.pages = 1
			var rows []catalog.Tuple
			for r := tf.NewReader(); ; {
				tu, ok, err := r.Next(ctx)
				if err != nil || !ok {
					return rows, err
				}
				rows = append(rows, tu.Owned())
			}
		}
		rows, err := read(data)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "exec: corrupt temp ") {
				t.Fatalf("error %q does not name a corrupt temp page", err)
			}
			return
		}
		// What was read re-encodes into no more bytes than it came from.
		again, err := read(tempPageOf(t, rows...))
		if err != nil || len(again) != len(rows) {
			t.Fatalf("round trip: %d rows, then %d (%v)", len(rows), len(again), err)
		}
		for i := range rows {
			if !sameRow(rows[i], again[i]) {
				t.Fatalf("round trip changed row %d: %v, then %v", i, rows[i], again[i])
			}
		}
	})
}
