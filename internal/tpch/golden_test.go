package tpch

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hstoragedb/internal/engine"
	"hstoragedb/internal/engine/catalog"
	"hstoragedb/internal/hybrid"
)

// rowsHash digests query output in order: every field of every datum,
// floats by their bits, so a row that differs in the last place of one
// sum, or two rows that swap places, change it.
func rowsHash(rows []catalog.Tuple) uint64 {
	h := fnv.New64a()
	var w [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(w[:], v)
		_, _ = h.Write(w[:])
	}
	for _, r := range rows {
		word(uint64(len(r)))
		for _, d := range r {
			word(uint64(d.I))
			word(math.Float64bits(d.F))
			word(uint64(len(d.S)))
			_, _ = h.Write([]byte(d.S))
		}
	}
	return h.Sum64()
}

// TestQueriesGolden pins what the 22 queries return and what they cost:
// one line per query x seed x work memory with the row count, a digest of
// the rows Execute returned and the simulated elapsed time, which moves
// if a single page access or ChargeTuples call moves. Work memory 100
// spills every blocking operator, 3000 some, 1<<24 none. Each (work
// memory, seed) arm runs Q1..Q22 in order on one session over a freshly
// loaded dataset, so an arm's lines depend on nothing outside it. The
// file was generated before the executor started passing borrowed rows
// between operators; delete it and run the test once to regenerate.
func TestQueriesGolden(t *testing.T) {
	var b strings.Builder
	for _, workMem := range []int{100, 3000, 1 << 24} {
		for _, seed := range []int64{0, 1} {
			ds, err := Load(0.01)
			if err != nil {
				t.Fatal(err)
			}
			inst, err := ds.DB.NewInstance(engine.InstanceConfig{
				Storage:         hybrid.Config{Mode: hybrid.HStorage, CacheBlocks: int(ds.DB.Store.TotalPages()) / 4},
				BufferPoolPages: 64,
				WorkMem:         workMem,
				CPUPerTuple:     300 * time.Nanosecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			sess := inst.NewSession()
			for q := 1; q <= 22; q++ {
				res, err := sess.Execute(ds.MustQuery(q, seed))
				if err != nil {
					t.Fatalf("Q%d seed %d workmem %d: %v", q, seed, workMem, err)
				}
				fmt.Fprintf(&b, "Q%d seed=%d workmem=%d rows=%d digest=%016x elapsed_ns=%d\n",
					q, seed, workMem, len(res.Rows), rowsHash(res.Rows), int64(res.Elapsed))
			}
		}
	}
	got := b.String()

	path := filepath.Join("testdata", "queries.golden")
	want, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s did not exist: written from this run, rerun to compare", path)
	}
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Errorf("%s line %d:\n got  %s\n want %s", path, i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Errorf("%s: %d lines, want %d", path, len(gl), len(wl))
	}
}
