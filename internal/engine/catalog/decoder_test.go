package catalog_test

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"hstoragedb/internal/engine/catalog"
	"hstoragedb/internal/tpch"
)

// tables lists the TPC-H schemas in a fixed order.
func tables() ([]string, map[string]catalog.Schema) {
	schemas := tpch.Schemas()
	names := make([]string, 0, len(schemas))
	for n := range schemas {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, schemas
}

// randRow is a random row of s; one string in eight is long enough for a
// two-byte length.
func randRow(rng *rand.Rand, s catalog.Schema) catalog.Tuple {
	t := make(catalog.Tuple, len(s.Cols))
	for i, c := range s.Cols {
		switch c.Type {
		case catalog.Float64:
			t[i] = catalog.FloatDatum(rng.NormFloat64() * 1e4)
		case catalog.String:
			n := rng.Intn(20)
			if rng.Intn(8) == 0 {
				n = 128 + rng.Intn(200)
			}
			t[i] = catalog.StringDatum(strings.Repeat(string(rune('a'+rng.Intn(26))), n))
		default:
			t[i] = catalog.IntDatum(rng.Int63() - math.MaxInt64/2)
		}
	}
	return t
}

// set is the column set whose bit i is mask's bit i.
func set(n int, mask uint64) []bool {
	read := make([]bool, n)
	for i := range read {
		read[i] = mask&(1<<i) != 0
	}
	return read
}

// sameDatum compares all three fields, a float by its bits.
func sameDatum(a, b catalog.Datum) bool {
	return a.I == b.I && math.Float64bits(a.F) == math.Float64bits(b.F) && a.S == b.S
}

// checkDecoder decodes src through the decoder of read and holds it to
// DecodeTupleBorrowed over the schema's prefix up to the last column read
// (the bytes the decoder walks): both fail, or both succeed with the same
// length, every read column equal and every other one poisoned.
func checkDecoder(t *testing.T, s catalog.Schema, read []bool, src []byte) {
	t.Helper()
	last := len(read) - 1
	for last >= 0 && !read[last] {
		last--
	}
	prefix := catalog.Schema{Cols: s.Cols[:last+1]}
	want, wantN, wantErr := catalog.DecodeTupleBorrowed(nil, src, prefix)
	got, n, err := catalog.NewDecoder(s, read).Decode(nil, src)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("read %v: error %v, DecodeTupleBorrowed's %v", read, err, wantErr)
	}
	if err != nil {
		return
	}
	if n != wantN || len(got) != len(s.Cols) {
		t.Fatalf("read %v: %d columns in %d bytes, want %d in %d", read, len(got), n, len(s.Cols), wantN)
	}
	for i := range got {
		if read[i] && !sameDatum(got[i], want[i]) {
			t.Fatalf("read %v: column %d is %+v, want %+v", read, i, got[i], want[i])
		}
		if !read[i] && !catalog.Poisoned(got[i]) {
			t.Fatalf("read %v: unread column %d is %+v, not the poison", read, i, got[i])
		}
	}
}

// TestDecoderColumnSets holds the decoder of random column sets of every
// TPC-H schema to DecodeTupleBorrowed on random rows, and checks that a
// row cut anywhere before the end of its last read column errors.
func TestDecoderColumnSets(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	names, schemas := tables()
	for _, name := range names {
		s := schemas[name]
		t.Run(name, func(t *testing.T) {
			n := len(s.Cols)
			masks := []uint64{0, 1, 1 << (n - 1), 1<<n - 1}
			for len(masks) < 40 {
				masks = append(masks, rng.Uint64()&(1<<n-1))
			}
			for _, mask := range masks {
				row := randRow(rng, s)
				enc, err := catalog.EncodeTuple(nil, s, row)
				if err != nil {
					t.Fatal(err)
				}
				read := set(n, mask)
				checkDecoder(t, s, read, enc)
				// The full decode agrees with the row itself.
				full, m, err := catalog.DecodeTupleBorrowed(nil, enc, s)
				if err != nil || m != len(enc) {
					t.Fatalf("full decode: %d of %d bytes, %v", m, len(enc), err)
				}
				for i := range full {
					if !sameDatum(full[i], row[i]) {
						t.Fatalf("full decode: column %d is %+v, want %+v", i, full[i], row[i])
					}
				}
				_, end, _ := catalog.NewDecoder(s, read).Decode(nil, enc)
				for cut := 0; cut < end; cut++ {
					if _, _, err := catalog.NewDecoder(s, read).Decode(nil, enc[:cut]); err == nil {
						t.Fatalf("read %v: a row cut at %d of %d decoded", read, cut, end)
					}
				}
			}
		})
	}
}

// TestDecoderScratch checks that Scratch poisons exactly the columns
// outside the set, and that the all-columns decoder's scratch has none.
func TestDecoderScratch(t *testing.T) {
	_, schemas := tables()
	s := schemas["lineitem"]
	read := set(len(s.Cols), 0b1010)
	for i, d := range catalog.NewDecoder(s, read).Scratch() {
		if catalog.Poisoned(d) == read[i] {
			t.Fatalf("column %d: poisoned %v, read %v", i, catalog.Poisoned(d), read[i])
		}
	}
	for i, d := range catalog.NewDecoder(s, nil).Scratch() {
		if catalog.Poisoned(d) {
			t.Fatalf("all-columns scratch: column %d poisoned", i)
		}
	}
}

// FuzzDecode feeds arbitrary bytes and column sets of the TPC-H schemas to
// the decoder: it never reads past its input, and agrees with
// DecodeTupleBorrowed (see checkDecoder).
func FuzzDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	names, schemas := tables()
	for ti, name := range names {
		s := schemas[name]
		enc, err := catalog.EncodeTuple(nil, s, randRow(rng, s))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(ti), rng.Uint64(), enc)
		f.Add(uint8(ti), ^uint64(0), enc[:len(enc)/2])
	}
	f.Fuzz(func(t *testing.T, table uint8, mask uint64, src []byte) {
		s := schemas[names[int(table)%len(names)]]
		checkDecoder(t, s, set(len(s.Cols), mask), src)
	})
}

// BenchmarkDecode decodes one lineitem row: every column, Q6's four
// (l_quantity, l_extendedprice, l_discount, l_shipdate) and Q1's seven
// (Q6's four and l_tax, l_returnflag, l_linestatus).
func BenchmarkDecode(b *testing.B) {
	s := tpch.Schemas()["lineitem"]
	row := catalog.Tuple{
		catalog.IntDatum(600001), catalog.IntDatum(19999), catalog.IntDatum(999), catalog.IntDatum(3),
		catalog.FloatDatum(17), catalog.FloatDatum(21168.23), catalog.FloatDatum(0.04), catalog.FloatDatum(0.02),
		catalog.StringDatum("N"), catalog.StringDatum("O"),
		catalog.IntDatum(9568), catalog.IntDatum(9597), catalog.IntDatum(9601),
		catalog.StringDatum("TRUCK"),
	}
	enc, err := catalog.EncodeTuple(nil, s, row)
	if err != nil {
		b.Fatal(err)
	}
	only := func(cols ...string) []bool {
		read := make([]bool, len(s.Cols))
		for _, c := range cols {
			read[s.MustCol(c)] = true
		}
		return read
	}
	for _, bc := range []struct {
		name string
		read []bool
	}{
		{"all", nil},
		{"q6", only("l_quantity", "l_extendedprice", "l_discount", "l_shipdate")},
		{"q1", only("l_quantity", "l_extendedprice", "l_discount", "l_tax", "l_returnflag", "l_linestatus", "l_shipdate")},
	} {
		b.Run(bc.name, func(b *testing.B) {
			d := catalog.NewDecoder(s, bc.read)
			dst := d.Scratch()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if dst, _, err = d.Decode(dst, enc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
