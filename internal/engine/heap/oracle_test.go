package heap

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"hstoragedb/internal/engine/catalog"
	"hstoragedb/internal/engine/policy"
	"hstoragedb/internal/pagestore"
)

// decodePage and rewritePage are the whole-page codec the heap file used
// before it addressed slots in the frame. They stay as the oracle the
// slot walk and the splice are compared with.

// decodePage parses all tuples of a page (nil = tombstone).
func decodePage(data []byte, schema catalog.Schema) ([]catalog.Tuple, error) {
	if len(data) < pageHeader {
		return nil, fmt.Errorf("heap: short page")
	}
	n := binary.LittleEndian.Uint16(data[:2])
	out := make([]catalog.Tuple, 0, n)
	off := pageHeader
	for i := 0; i < int(n); i++ {
		if off+2 > len(data) {
			return nil, fmt.Errorf("heap: truncated tuple header at slot %d", i)
		}
		l := int(binary.LittleEndian.Uint16(data[off:]))
		off += 2
		if l == tombstone {
			out = append(out, nil)
			continue
		}
		if off+l > len(data) {
			return nil, fmt.Errorf("heap: truncated tuple at slot %d", i)
		}
		t, _, err := catalog.DecodeTuple(data[off:off+l], schema)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		off += l
	}
	return out, nil
}

// rewritePage re-encodes decoded tuples (nil = tombstone) into page bytes.
func rewritePage(tuples []catalog.Tuple, schema catalog.Schema) ([]byte, error) {
	buf := make([]byte, pageHeader, pagestore.PageSize)
	binary.LittleEndian.PutUint16(buf[:2], uint16(len(tuples)))
	for _, t := range tuples {
		if t == nil {
			buf = binary.LittleEndian.AppendUint16(buf, tombstone)
			continue
		}
		enc, err := catalog.EncodeTuple(nil, schema, t)
		if err != nil {
			return nil, err
		}
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(enc)))
		buf = append(buf, enc...)
	}
	if len(buf) > pagestore.PageSize {
		return nil, fmt.Errorf("heap: rewritten page overflows (%d bytes)", len(buf))
	}
	return buf, nil
}

// randRow is a row whose string length varies, so slots sit at irregular
// offsets.
func randRow(rng *rand.Rand) catalog.Tuple {
	return catalog.Tuple{
		catalog.IntDatum(rng.Int63()),
		catalog.StringDatum(strings.Repeat("x", rng.Intn(200))),
	}
}

// randPage builds a real page image: rows tuples, each slot a tombstone
// with probability dead, zero-padded to a full page when pad is set (the
// image a page has once it has been written back and read again).
func randPage(t testing.TB, rng *rand.Rand, rows int, dead float64, pad bool) []byte {
	t.Helper()
	tuples := make([]catalog.Tuple, rows)
	for i := range tuples {
		if rng.Float64() >= dead {
			tuples[i] = randRow(rng)
		}
	}
	page, err := rewritePage(tuples, testSchema())
	if err != nil {
		t.Fatal(err)
	}
	if pad {
		page = append(page, make([]byte, pagestore.PageSize-len(page))...)
	}
	return page
}

// checkSlotsMatchOracle asserts that decoding every slot through the walk
// equals the whole-page decode, and that one side fails iff the other
// does.
func checkSlotsMatchOracle(t *testing.T, data []byte, schema catalog.Schema) {
	t.Helper()
	want, wantErr := decodePage(data, schema)
	n := 0
	if len(data) >= pageHeader {
		n = int(binary.LittleEndian.Uint16(data))
	}
	var gotErr error
	for slot := 0; slot < n; slot++ {
		payload, live, err := slotAt(data, uint16(slot))
		var got catalog.Tuple
		if err == nil && live {
			got, _, err = catalog.DecodeTuple(payload, schema)
		}
		if err != nil {
			gotErr = err
			break // the walk to any later slot passes this one
		}
		if wantErr == nil && !reflect.DeepEqual(got, want[slot]) {
			t.Fatalf("slot %d: walk %v, oracle %v", slot, got, want[slot])
		}
	}
	if len(data) < pageHeader {
		_, _, gotErr = slotAt(data, 0)
	}
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("walk error %v, oracle error %v", gotErr, wantErr)
	}
	// Past the directory there is no row and no error.
	if wantErr == nil && n < 0xFFFF {
		if _, live, err := slotAt(data, uint16(n)); live || err != nil {
			t.Fatalf("slot %d past the directory: live=%v err=%v", n, live, err)
		}
	}
}

func TestSlotWalkMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		checkSlotsMatchOracle(t, randPage(t, rng, rng.Intn(60), 0.2, i%2 == 0), testSchema())
	}
}

// FuzzHeapPage feeds arbitrary page bytes to the slot walk. The seed
// corpus holds real pages: full and padded, with tombstones, with one
// tuple of the largest size a page takes, and cut short.
func FuzzHeapPage(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	f.Add(randPage(f, rng, 40, 0, false))
	f.Add(randPage(f, rng, 40, 0.3, true))
	f.Add(randPage(f, rng, 30, 1, false))
	f.Add(randPage(f, rng, 0, 0, true))
	maxStr := pagestore.PageSize - pageHeader - 2 - 8 - 2 // slot header, int column, 2-byte uvarint
	big, err := rewritePage([]catalog.Tuple{{catalog.IntDatum(1), catalog.StringDatum(strings.Repeat("m", maxStr))}}, testSchema())
	if err != nil {
		f.Fatal(err)
	}
	if len(big) != pagestore.PageSize {
		f.Fatalf("max-size tuple fills %d of %d bytes", len(big), pagestore.PageSize)
	}
	f.Add(big)
	whole := randPage(f, rng, 20, 0.1, false)
	f.Add(whole[:len(whole)-5])                              // payload cut
	f.Add(whole[:1])                                         // header cut
	f.Add(append([]byte{0xFF, 0x7F}, whole[pageHeader:]...)) // tupleCount beyond the bytes present
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > pagestore.PageSize {
			data = data[:pagestore.PageSize]
		}
		checkSlotsMatchOracle(t, data, testSchema())
	})
}

// TestSpliceMatchesRewrite is the differential test of Update/Delete's
// page rewrite: on random pages, a random sequence of slot replacements
// and tombstonings yields the bytes decode-all + rewritePage yields.
func TestSpliceMatchesRewrite(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	schema := testSchema()
	for round := 0; round < 100; round++ {
		page := randPage(t, rng, 1+rng.Intn(40), 0.1, round%2 == 0)
		for step := 0; step < 30; step++ {
			tuples, err := decodePage(page, schema)
			if err != nil {
				t.Fatal(err)
			}
			rid := catalog.RID{Page: 7, Slot: uint16(rng.Intn(len(tuples) + 1))}
			var enc []byte
			tomb := rng.Intn(3) == 0
			var row catalog.Tuple
			if !tomb {
				row = randRow(rng)
				if enc, err = catalog.EncodeTuple(nil, schema, row); err != nil {
					t.Fatal(err)
				}
			}
			got, wasDead, err := replaceSlot(page, rid, enc, tomb)
			switch {
			case int(rid.Slot) >= len(tuples):
				if err == nil {
					t.Fatalf("slot %d of %d accepted", rid.Slot, len(tuples))
				}
				continue
			case tuples[rid.Slot] == nil:
				if !wasDead || err != nil || got != nil {
					t.Fatalf("dead slot: wasDead=%v err=%v", wasDead, err)
				}
				continue
			}
			tuples[rid.Slot] = row
			want, wantErr := rewritePage(tuples, schema)
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("splice error %v, oracle error %v", err, wantErr)
			}
			if err != nil {
				continue // both overflowed; the page stays as it was
			}
			if wasDead || !bytes.Equal(got, want) {
				t.Fatalf("round %d step %d slot %d: spliced page differs from rewritePage", round, step, rid.Slot)
			}
			page = got
		}
	}
}

// TestScanSkipsTombstonePages scans a file whose middle pages hold
// nothing but deleted slots; the skip is a loop, so the stack does not
// grow with the run of tombstones.
func TestScanSkipsTombstonePages(t *testing.T) {
	h := newHarness(t, 64)
	_ = h.store.Create(1)
	f := NewFile(1, testSchema(), policy.Table)
	app := f.NewAppender(&h.clk, h.pool, 0)
	var rids []catalog.RID
	for i := int64(0); i < 3000; i++ {
		rid, err := app.Append(row(i))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if err := app.Close(); err != nil {
		t.Fatal(err)
	}
	last := rids[len(rids)-1].Page
	if last < 4 {
		t.Fatalf("file has only %d pages", last+1)
	}
	want := 0
	for _, rid := range rids {
		if rid.Page == 0 || rid.Page == last {
			want++
			continue
		}
		if ok, err := f.Delete(&h.clk, h.pool, rid, 0); err != nil || !ok {
			t.Fatalf("delete %v: %v %v", rid, ok, err)
		}
	}
	sc := f.NewScanner(&h.clk, h.pool, h.store.Pages(1))
	got := 0
	for {
		tup, rid, ok, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if rid.Page != 0 && rid.Page != last {
			t.Fatalf("deleted row %v (key %d) visible", rid, tup[0].I)
		}
		got++
	}
	if got != want {
		t.Fatalf("scan saw %d rows, want %d", got, want)
	}
}

// TestUpdateKeepsNeighbours drives Update and Delete through the pool and
// checks every slot of the page against a model.
func TestUpdateKeepsNeighbours(t *testing.T) {
	h := newHarness(t, 4)
	_ = h.store.Create(1)
	f := NewFile(1, testSchema(), policy.Table)
	app := f.NewAppender(&h.clk, h.pool, 0)
	model := map[catalog.RID]catalog.Tuple{}
	var rids []catalog.RID
	for i := int64(0); i < 400; i++ {
		rid, err := app.Append(row(i))
		if err != nil {
			t.Fatal(err)
		}
		model[rid] = row(i)
		rids = append(rids, rid)
	}
	_ = app.Close()
	rng := rand.New(rand.NewSource(4))
	for step := 0; step < 500; step++ {
		rid := rids[rng.Intn(len(rids))]
		if rng.Intn(4) == 0 {
			ok, err := f.Delete(&h.clk, h.pool, rid, 0)
			if err != nil || ok != (model[rid] != nil) {
				t.Fatalf("delete %v: %v %v", rid, ok, err)
			}
			model[rid] = nil
			continue
		}
		nu := row(rng.Int63n(1 << 40))
		err := f.Update(&h.clk, h.pool, rid, nu, 0)
		if (err != nil) != (model[rid] == nil) {
			t.Fatalf("update %v of %v: %v", rid, model[rid], err)
		}
		if err == nil {
			model[rid] = nu
		}
	}
	for _, rid := range rids {
		got, err := f.Fetch(&h.clk, h.pool, rid, 0)
		if err != nil || !reflect.DeepEqual(got, model[rid]) {
			t.Fatalf("rid %v: %v (%v), want %v", rid, got, err, model[rid])
		}
	}
	if err := f.Update(&h.clk, h.pool, catalog.RID{Page: 0, Slot: 9999}, row(1), 0); err == nil {
		t.Fatal("update of a slot past the directory accepted")
	}
}
