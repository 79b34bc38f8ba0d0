package pagestore

import (
	"bytes"
	"testing"
	"testing/quick"
)

// lbaOf is the block a read of (object, page) touches.
func lbaOf(s *Store, id ObjectID, page int64) (int64, error) {
	_, plan, err := s.Read(id, page)
	if err != nil {
		return 0, err
	}
	return plan[0].LBA, nil
}

func TestCreateAndExists(t *testing.T) {
	s := NewStore()
	if s.Exists(1) {
		t.Fatal("object 1 exists in empty store")
	}
	if err := s.Create(1); err != nil {
		t.Fatal(err)
	}
	if !s.Exists(1) {
		t.Fatal("created object missing")
	}
	if err := s.Create(1); err == nil {
		t.Fatal("duplicate create accepted")
	}
}

func TestReadUnwrittenPageIsZero(t *testing.T) {
	s := NewStore()
	_ = s.Create(1)
	data, _, err := s.Read(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != PageSize {
		t.Fatalf("page size %d", len(data))
	}
	for _, b := range data {
		if b != 0 {
			t.Fatal("unwritten page not zero")
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	s := NewStore()
	_ = s.Create(7)
	payload := []byte("hello page")
	if _, err := s.Write(7, 3, payload); err != nil {
		t.Fatal(err)
	}
	data, _, err := s.Read(7, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data[:len(payload)], payload) {
		t.Fatal("payload mismatch")
	}
	if s.Pages(7) != 4 {
		t.Fatalf("pages = %d, want 4 (out-of-order growth)", s.Pages(7))
	}
}

func TestSequentialLayout(t *testing.T) {
	// Pages of one object inside an extent must map to consecutive LBAs:
	// the property Rule 1 depends on.
	s := NewStore()
	_ = s.Create(1)
	prev, err := lbaOf(s, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for p := int64(1); p < ExtentPages; p++ {
		lba, err := lbaOf(s, 1, p)
		if err != nil {
			t.Fatal(err)
		}
		if lba != prev+1 {
			t.Fatalf("page %d at LBA %d, prev at %d", p, lba, prev)
		}
		prev = lba
	}
}

func TestDistinctObjectsDistinctLBAs(t *testing.T) {
	s := NewStore()
	_ = s.Create(1)
	_ = s.Create(2)
	a, _ := lbaOf(s, 1, 0)
	b, _ := lbaOf(s, 2, 0)
	if a == b {
		t.Fatal("objects share an LBA")
	}
}

func TestDeleteReturnsExtentsAndRecycles(t *testing.T) {
	s := NewStore()
	_ = s.Create(1)
	for p := int64(0); p < ExtentPages+10; p++ {
		if _, err := s.Write(1, p, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	exts, err := s.Delete(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(exts) != 2 {
		t.Fatalf("extents = %d, want 2", len(exts))
	}
	var pages int64
	for _, e := range exts {
		pages += e.Pages
	}
	if pages != ExtentPages+10 {
		t.Fatalf("extent pages = %d, want %d", pages, ExtentPages+10)
	}
	if s.Exists(1) {
		t.Fatal("deleted object still exists")
	}
	// Freed extents are reused by new objects.
	_ = s.Create(2)
	lba, _ := lbaOf(s, 2, 0)
	found := false
	for _, e := range exts {
		if lba >= e.Start && lba < e.Start+ExtentPages {
			found = true
		}
	}
	if !found {
		t.Fatal("freed extent not recycled")
	}
	// And the recycled pages read as zero.
	data, _, _ := s.Read(2, 0)
	for _, b := range data {
		if b != 0 {
			t.Fatal("stale data visible after recycle")
		}
	}
}

func TestErrors(t *testing.T) {
	s := NewStore()
	if _, err := lbaOf(s, 9, 0); err == nil {
		t.Fatal("unknown object accepted")
	}
	if _, err := s.Delete(9); err == nil {
		t.Fatal("deleting unknown object accepted")
	}
	_ = s.Create(1)
	if _, err := lbaOf(s, 1, -1); err == nil {
		t.Fatal("negative page accepted")
	}
	big := make([]byte, PageSize+1)
	if _, err := s.Write(1, 0, big); err == nil {
		t.Fatal("oversized page accepted")
	}
}

func TestTotalPagesAndObjects(t *testing.T) {
	s := NewStore()
	_ = s.Create(3)
	_ = s.Create(1)
	_, _ = s.Write(1, 0, []byte{1})
	_, _ = s.Write(3, 4, []byte{1})
	if got := s.TotalPages(); got != 6 {
		t.Fatalf("total pages %d, want 6", got)
	}
	ids := s.Objects()
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 3 {
		t.Fatalf("objects %v", ids)
	}
}

// Property: LBAs never collide across live (object, page) pairs.
func TestNoLBACollisions(t *testing.T) {
	f := func(ops []uint16) bool {
		s := NewStore()
		seen := map[int64][2]int64{} // lba -> (obj, page)
		for _, op := range ops {
			obj := ObjectID(op%5) + 1
			page := int64(op % 300)
			if !s.Exists(obj) {
				if err := s.Create(obj); err != nil {
					return false
				}
			}
			lba, err := lbaOf(s, obj, page)
			if err != nil {
				return false
			}
			if prev, ok := seen[lba]; ok {
				if prev != [2]int64{int64(obj), page} {
					return false
				}
			}
			seen[lba] = [2]int64{int64(obj), page}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
