// Conformance suite for pagestore.Backend implementations: every
// backend the engine can mount must agree on the seam's semantics —
// object lifecycle, zero-fill reads, growth on out-of-order writes,
// ErrUnknownObject after a delete, and a recreated object that reads
// none of its predecessor's pages. Properties
// that are legitimately backend-specific (synchronous TRIM reporting,
// extent contiguity) are declared per backend in the case table.
package pagestore_test

import (
	"errors"
	"fmt"
	"testing"

	"hstoragedb/internal/lsm"
	"hstoragedb/internal/pagestore"
)

type backendCase struct {
	name string
	make func() pagestore.Backend
	// syncTrims: Delete reports the freed extents in its return value
	// (the heap frees in place). Backends that reclaim asynchronously
	// report nothing there and TRIM through maintenance instead.
	syncTrims bool
	// contiguous: consecutive pages of one object occupy consecutive
	// LBAs in the write plans (the heap's extent property; an LSM's
	// placement depends on flush grouping).
	contiguous bool
}

func backends() []backendCase {
	return []backendCase{
		{
			name:       "heap",
			make:       func() pagestore.Backend { return pagestore.NewStore() },
			syncTrims:  true,
			contiguous: true,
		},
		{
			name:       "lsm",
			make:       func() pagestore.Backend { return lsm.New(lsm.Config{MemtablePages: 8, L0Tables: 2}) },
			syncTrims:  false,
			contiguous: false,
		},
	}
}

func payload(id pagestore.ObjectID, page int64) []byte {
	return []byte(fmt.Sprintf("object %d page %d", id, page))
}

func readBack(t *testing.T, b pagestore.Backend, id pagestore.ObjectID, page int64, want []byte) {
	t.Helper()
	got, _, err := b.Read(id, page)
	if err != nil {
		t.Fatalf("Read(%d,%d): %v", id, page, err)
	}
	if len(got) != pagestore.PageSize {
		t.Fatalf("Read(%d,%d) returned %d bytes", id, page, len(got))
	}
	if string(got[:len(want)]) != string(want) {
		t.Fatalf("Read(%d,%d) = %q, want %q", id, page, got[:len(want)], want)
	}
}

func TestConformanceLifecycle(t *testing.T) {
	for _, bc := range backends() {
		t.Run(bc.name, func(t *testing.T) {
			b := bc.make()
			if b.Exists(7) {
				t.Fatal("fresh backend claims object 7")
			}
			if err := b.Create(7); err != nil {
				t.Fatal(err)
			}
			if err := b.Create(7); err == nil {
				t.Fatal("duplicate Create succeeded")
			}
			if !b.Exists(7) || b.Pages(7) != 0 {
				t.Fatalf("exists=%v pages=%d after create", b.Exists(7), b.Pages(7))
			}
			if err := b.Extend(7, 5); err != nil {
				t.Fatal(err)
			}
			if got := b.Pages(7); got != 5 {
				t.Fatalf("Pages after Extend = %d", got)
			}
			// Extend never shrinks.
			if err := b.Extend(7, 2); err != nil {
				t.Fatal(err)
			}
			if got := b.Pages(7); got != 5 {
				t.Fatalf("Pages after smaller Extend = %d", got)
			}
			if _, err := b.Delete(7); err != nil {
				t.Fatal(err)
			}
			if b.Exists(7) {
				t.Fatal("object survives Delete")
			}
		})
	}
}

func TestConformanceUnknownObject(t *testing.T) {
	for _, bc := range backends() {
		t.Run(bc.name, func(t *testing.T) {
			b := bc.make()
			if _, _, err := b.Read(42, 0); !errors.Is(err, pagestore.ErrUnknownObject) {
				t.Fatalf("Read: %v", err)
			}
			if _, err := b.Write(42, 0, nil); !errors.Is(err, pagestore.ErrUnknownObject) {
				t.Fatalf("Write: %v", err)
			}
			if err := b.Extend(42, 1); !errors.Is(err, pagestore.ErrUnknownObject) {
				t.Fatalf("Extend: %v", err)
			}
			if _, err := b.Delete(42); !errors.Is(err, pagestore.ErrUnknownObject) {
				t.Fatalf("Delete: %v", err)
			}
		})
	}
}

func TestConformanceReadWrite(t *testing.T) {
	for _, bc := range backends() {
		t.Run(bc.name, func(t *testing.T) {
			b := bc.make()
			if err := b.Create(1); err != nil {
				t.Fatal(err)
			}
			// Out-of-order writes grow the object; the gap reads as
			// zeroes (buffer pools flush dirty pages in any order).
			for _, p := range []int64{3, 0, 5} {
				if _, err := b.Write(1, p, payload(1, p)); err != nil {
					t.Fatal(err)
				}
			}
			if got := b.Pages(1); got != 6 {
				t.Fatalf("Pages = %d, want 6", got)
			}
			for _, p := range []int64{0, 3, 5} {
				readBack(t, b, 1, p, payload(1, p))
			}
			data, _, err := b.Read(1, 2)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range data {
				if c != 0 {
					t.Fatal("gap page not zero-filled")
				}
			}
			// Reading past the end grows the object too.
			if _, _, err := b.Read(1, 9); err != nil {
				t.Fatal(err)
			}
			if got := b.Pages(1); got != 10 {
				t.Fatalf("Pages after read-past-end = %d, want 10", got)
			}
			// Overwrite: last write wins.
			if _, err := b.Write(1, 3, []byte("updated")); err != nil {
				t.Fatal(err)
			}
			readBack(t, b, 1, 3, []byte("updated"))
			// Oversized payloads are rejected.
			if _, err := b.Write(1, 0, make([]byte, pagestore.PageSize+1)); err == nil {
				t.Fatal("oversized write accepted")
			}
			// Negative pages are rejected.
			if _, _, err := b.Read(1, -1); err == nil {
				t.Fatal("negative-page read accepted")
			}
		})
	}
}

func TestConformanceAccessPlans(t *testing.T) {
	for _, bc := range backends() {
		t.Run(bc.name, func(t *testing.T) {
			b := bc.make()
			if err := b.Create(1); err != nil {
				t.Fatal(err)
			}
			var lbas []int64
			for p := int64(0); p < 16; p++ {
				plan, err := b.Write(1, p, payload(1, p))
				if err != nil {
					t.Fatal(err)
				}
				for _, a := range plan {
					if !a.Write {
						t.Fatalf("write plan contains a read: %+v", a)
					}
					if a.Blocks <= 0 {
						t.Fatalf("empty access in plan: %+v", a)
					}
					if !a.Meta {
						lbas = append(lbas, a.LBA)
					}
				}
			}
			if bc.contiguous {
				if len(lbas) != 16 {
					t.Fatalf("%d data accesses for 16 writes", len(lbas))
				}
				for i := 1; i < len(lbas); i++ {
					if lbas[i] != lbas[i-1]+1 {
						t.Fatalf("extent not contiguous: lba[%d]=%d after %d", i, lbas[i], lbas[i-1])
					}
				}
			}
			// Read plans: every access covers at least one block, and
			// the data still round-trips whatever the plan shape.
			for p := int64(0); p < 16; p++ {
				data, plan, err := b.Read(1, p)
				if err != nil {
					t.Fatal(err)
				}
				for _, a := range plan {
					if a.Write || a.Blocks <= 0 {
						t.Fatalf("bad read access: %+v", a)
					}
				}
				if string(data[:len(payload(1, p))]) != string(payload(1, p)) {
					t.Fatalf("page %d corrupt", p)
				}
			}
		})
	}
}

func TestConformanceDeleteReclamation(t *testing.T) {
	for _, bc := range backends() {
		t.Run(bc.name, func(t *testing.T) {
			b := bc.make()
			if err := b.Create(1); err != nil {
				t.Fatal(err)
			}
			for p := int64(0); p < 8; p++ {
				if _, err := b.Write(1, p, payload(1, p)); err != nil {
					t.Fatal(err)
				}
			}
			if sy, ok := b.(pagestore.Syncer); ok {
				if err := sy.Sync(); err != nil {
					t.Fatal(err)
				}
			}
			exts, err := b.Delete(1)
			if err != nil {
				t.Fatal(err)
			}
			if bc.syncTrims {
				var pages int64
				for _, e := range exts {
					pages += e.Pages
				}
				if pages < 8 {
					t.Fatalf("synchronous delete reported %d freed pages, want >= 8", pages)
				}
				return
			}
			// Asynchronous reclamation: nothing frees at Delete; the
			// space comes back as TRIMs once background reorganization
			// rewrites the dead object's runs.
			if len(exts) != 0 {
				t.Fatalf("async backend reported extents at Delete: %+v", exts)
			}
			mt, ok := b.(pagestore.Maintainer)
			if !ok {
				t.Fatal("async-reclaim backend without Maintainer")
			}
			mt.DrainMaintenance()
			if err := b.Create(2); err != nil {
				t.Fatal(err)
			}
			var trims int64
			for round := 0; round < 64 && trims == 0; round++ {
				for p := int64(0); p < 8; p++ {
					if _, err := b.Write(2, p, payload(2, p)); err != nil {
						t.Fatal(err)
					}
				}
				if err := b.(pagestore.Syncer).Sync(); err != nil {
					t.Fatal(err)
				}
				for _, job := range mt.DrainMaintenance() {
					for _, e := range job.Trims {
						trims += e.Pages
					}
				}
			}
			if trims == 0 {
				t.Fatal("no TRIMs surfaced through maintenance after churn")
			}
		})
	}
}

// TestConformanceRecreateReadsZeroes: after Delete, the object is
// unknown, and a Create of the same ID reads zeroes where the deleted
// object had pages, whether those pages were still in the backend's
// volatile state or had been made durable by Sync.
func TestConformanceRecreateReadsZeroes(t *testing.T) {
	for _, bc := range backends() {
		for _, synced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/synced=%v", bc.name, synced), func(t *testing.T) {
				b := bc.make()
				if err := b.Create(1); err != nil {
					t.Fatal(err)
				}
				for p := int64(0); p < 4; p++ {
					if _, err := b.Write(1, p, payload(1, p)); err != nil {
						t.Fatal(err)
					}
				}
				if sy, ok := b.(pagestore.Syncer); ok && synced {
					if err := sy.Sync(); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := b.Delete(1); err != nil {
					t.Fatal(err)
				}
				if _, _, err := b.Read(1, 0); !errors.Is(err, pagestore.ErrUnknownObject) {
					t.Fatalf("Read of a deleted object: %v, want ErrUnknownObject", err)
				}
				if err := b.Create(1); err != nil {
					t.Fatal(err)
				}
				if got := b.Pages(1); got != 0 {
					t.Fatalf("recreated object has %d pages", got)
				}
				for p := int64(0); p < 4; p++ {
					data, _, err := b.Read(1, p)
					if err != nil {
						t.Fatal(err)
					}
					for _, c := range data {
						if c != 0 {
							t.Fatalf("recreated object reads its predecessor's page %d", p)
						}
					}
				}
			})
		}
	}
}

func TestConformanceObjectsAndTotals(t *testing.T) {
	for _, bc := range backends() {
		t.Run(bc.name, func(t *testing.T) {
			b := bc.make()
			for _, id := range []pagestore.ObjectID{9, 3, 6} {
				if err := b.Create(id); err != nil {
					t.Fatal(err)
				}
				if _, err := b.Write(id, 1, payload(id, 1)); err != nil {
					t.Fatal(err)
				}
			}
			ids := b.Objects()
			if len(ids) != 3 || ids[0] != 3 || ids[1] != 6 || ids[2] != 9 {
				t.Fatalf("Objects() = %v, want [3 6 9]", ids)
			}
			if got := b.TotalPages(); got != 6 {
				t.Fatalf("TotalPages = %d, want 6 (three objects of 2 pages)", got)
			}
		})
	}
}

// TestConformanceKeepOrCopy: a backend keeps a page-capacity image with
// a zero tail as it is, the same backing array, and stores a padded copy
// of anything else. Either way a read returns the padded payload.
func TestConformanceKeepOrCopy(t *testing.T) {
	filled := func(n, c int) []byte {
		b := make([]byte, n, c)
		for i := range b {
			b[i] = byte(i%251 + 1)
		}
		return b
	}
	dirtyTail := filled(pagestore.PageSize, pagestore.PageSize)[:100]
	cases := []struct {
		name string
		data []byte
		kept bool
	}{
		{"page capacity, zero tail", filled(100, pagestore.PageSize), true},
		{"full page", filled(pagestore.PageSize, pagestore.PageSize), true},
		{"short capacity", filled(100, 100), false},
		{"over capacity", filled(100, 2*pagestore.PageSize), false},
		{"dirty tail", dirtyTail, false},
	}
	for _, bc := range backends() {
		t.Run(bc.name, func(t *testing.T) {
			b := bc.make()
			if err := b.Create(1); err != nil {
				t.Fatal(err)
			}
			for i, tc := range cases {
				want := make([]byte, pagestore.PageSize)
				copy(want, tc.data)
				if _, err := b.Write(1, int64(i), tc.data); err != nil {
					t.Fatal(err)
				}
				got, _, err := b.Read(1, int64(i))
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != pagestore.PageSize || string(got) != string(want) {
					t.Fatalf("%s: read %d bytes, not the padded payload", tc.name, len(got))
				}
				if kept := &got[0] == &tc.data[0]; kept != tc.kept {
					t.Fatalf("%s: kept by reference = %v, want %v", tc.name, kept, tc.kept)
				}
			}
		})
	}
}

// TestConformanceKill: both backends apply the one kill rule, a
// pagestore.Cut. After KillAfter(0) the next durable write (a page of a
// reserved-range object, which the LSM writes through to its embedded
// heap store) is refused and kills the store; from then on every
// operation on a tree object and on a reserved-range object returns
// ErrKilled, until Crash revives the store. Writes counts only the
// writes that passed.
func TestConformanceKill(t *testing.T) {
	type killable interface {
		pagestore.Volatile
		KillAfter(n int64)
		Writes() int64
		Dead() bool
	}
	const tree, reserved = pagestore.ObjectID(1), pagestore.LogBase + 1
	ids := []pagestore.ObjectID{tree, reserved}
	for _, bc := range backends() {
		t.Run(bc.name, func(t *testing.T) {
			b := bc.make()
			k := b.(killable)
			for _, id := range ids {
				if err := b.Create(id); err != nil {
					t.Fatal(err)
				}
				if _, err := b.Write(id, 0, payload(id, 0)); err != nil {
					t.Fatal(err)
				}
			}
			n := k.Writes()
			if _, err := b.Write(reserved, 1, payload(reserved, 1)); err != nil {
				t.Fatal(err)
			}
			if got := k.Writes(); got != n+1 {
				t.Fatalf("Writes = %d after one durable write, want %d", got, n+1)
			}

			k.KillAfter(0)
			if _, err := b.Write(reserved, 2, payload(reserved, 2)); !errors.Is(err, pagestore.ErrKilled) || !k.Dead() {
				t.Fatalf("the write after KillAfter(0): %v, dead=%v", err, k.Dead())
			}
			if got := k.Writes(); got != n+1 {
				t.Fatalf("Writes = %d after a refused write, want %d", got, n+1)
			}
			for _, id := range ids {
				killed := func(op string, err error) {
					t.Helper()
					if !errors.Is(err, pagestore.ErrKilled) {
						t.Fatalf("%s(%d) on a dead store = %v, want ErrKilled", op, id, err)
					}
				}
				killed("Create", b.Create(id+1))
				killed("Extend", b.Extend(id, 9))
				_, _, err := b.Read(id, 0)
				killed("Read", err)
				_, err = b.Write(id, 0, payload(id, 0))
				killed("Write", err)
				_, err = b.Delete(id)
				killed("Delete", err)
			}
			if sy, ok := b.(pagestore.Syncer); ok {
				if err := sy.Sync(); !errors.Is(err, pagestore.ErrKilled) {
					t.Fatalf("Sync on a dead store = %v, want ErrKilled", err)
				}
			}

			if err := k.Crash(); err != nil {
				t.Fatal(err)
			}
			if k.Dead() {
				t.Fatal("Crash left the store dead")
			}
			readBack(t, b, reserved, 1, payload(reserved, 1))
			for _, id := range ids {
				if !b.Exists(id) {
					t.Fatalf("object %d lost across the kill", id)
				}
				if _, err := b.Write(id, 3, payload(id, 3)); err != nil {
					t.Fatal(err)
				}
				readBack(t, b, id, 3, payload(id, 3))
			}
			if got := k.Writes(); got <= n+1 {
				t.Fatalf("Writes = %d: the revived store's writes did not count", got)
			}
		})
	}
}
