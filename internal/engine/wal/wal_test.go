package wal

import (
	"bytes"
	"testing"
	"time"

	"hstoragedb/internal/dss"
	"hstoragedb/internal/engine/bufferpool"
	"hstoragedb/internal/engine/policy"
	"hstoragedb/internal/engine/storagemgr"
	"hstoragedb/internal/hybrid"
	"hstoragedb/internal/pagestore"
	"hstoragedb/internal/simclock"
)

// testMgr builds a bare storage manager over a fresh store and an
// HDD-only storage system.
func testMgr(t testing.TB, store *pagestore.Store) *storagemgr.Manager {
	t.Helper()
	sys, err := hybrid.New(hybrid.Config{Mode: hybrid.HDDOnly})
	if err != nil {
		t.Fatal(err)
	}
	return storagemgr.New(store, sys, policy.NewAssignmentTable(dss.DefaultPolicySpace()))
}

func newTestPool(mgr *storagemgr.Manager) *bufferpool.Pool {
	return bufferpool.New(mgr, 64)
}

func TestRecordRoundtrip(t *testing.T) {
	recs := []Record{
		{LSN: 1, Txn: 7, Kind: KindBegin},
		{LSN: 2, Txn: 7, Kind: KindPage, Obj: 12, Page: 99, Image: bytes.Repeat([]byte{0xAB}, 5000)},
		{LSN: 3, Txn: 7, Kind: KindPage, Obj: 13, Page: 3, Image: []byte{1, 2, 3}},
		{LSN: 4, Txn: 7, Kind: KindCommit},
		{LSN: 5, Txn: 0, Kind: KindCheckpoint},
	}
	var buf []byte
	for _, r := range recs {
		buf = appendRecord(buf, r)
	}
	buf = append(buf, 0, 0, 0) // end-of-log padding

	off := 0
	for i, want := range recs {
		got, n := parseRecord(buf[off:])
		if n == 0 {
			t.Fatalf("record %d: unexpected end", i)
		}
		off += n
		if got.LSN != want.LSN || got.Txn != want.Txn || got.Kind != want.Kind ||
			got.Obj != want.Obj || got.Page != want.Page || !bytes.Equal(got.Image, want.Image) {
			t.Fatalf("record %d mismatch: got %+v", i, got)
		}
	}
	if _, n := parseRecord(buf[off:]); n != 0 {
		t.Fatal("parser did not stop at the end sentinel")
	}
}

func TestAppendFlushRecover(t *testing.T) {
	store := pagestore.NewStore()
	mgr := testMgr(t, store)
	var clk simclock.Clock

	cfg := Config{SegmentPages: 4, GroupCommitWindow: 10 * time.Microsecond}
	m, err := New(&clk, mgr, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// A committed transaction writing two pages of object 42, and a loser
	// whose records are durable but whose commit record is not.
	if err := store.Create(42); err != nil {
		t.Fatal(err)
	}
	img1 := bytes.Repeat([]byte{0x11}, 4000)
	img2 := bytes.Repeat([]byte{0x22}, 4000)
	loser := bytes.Repeat([]byte{0x66}, 4000)

	mustAppend := func(r Record) LSN {
		t.Helper()
		lsn, err := m.Append(&clk, r)
		if err != nil {
			t.Fatal(err)
		}
		return lsn
	}
	mustAppend(Record{Txn: 1, Kind: KindBegin})
	mustAppend(Record{Txn: 1, Kind: KindPage, Obj: 42, Page: 0, Image: img1})
	mustAppend(Record{Txn: 1, Kind: KindPage, Obj: 42, Page: 1, Image: img2})
	commitLSN := mustAppend(Record{Txn: 1, Kind: KindCommit})
	if err := m.Flush(&clk, commitLSN); err != nil {
		t.Fatal(err)
	}
	mustAppend(Record{Txn: 2, Kind: KindBegin})
	loserLSN := mustAppend(Record{Txn: 2, Kind: KindPage, Obj: 42, Page: 0, Image: loser})
	if err := m.Flush(&clk, loserLSN); err != nil {
		t.Fatal(err)
	}
	if m.DurableLSN() < loserLSN {
		t.Fatalf("durable LSN %d below %d", m.DurableLSN(), loserLSN)
	}

	// "Crash": recover over the surviving store with a fresh manager.
	store2clk := simclock.Clock{}
	mgr2 := testMgr(t, store)
	m2, stats, err := Recover(&store2clk, mgr2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CommittedTxns != 1 || stats.LoserTxns != 1 {
		t.Fatalf("committed=%d losers=%d", stats.CommittedTxns, stats.LoserTxns)
	}
	if stats.PagesApplied != 2 {
		t.Fatalf("pages applied %d", stats.PagesApplied)
	}
	got, _, err := store.ReadPage(42, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:len(img1)], img1) {
		t.Fatal("page 0 not redone with the committed image (loser must not win)")
	}
	got, _, err = store.ReadPage(42, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:len(img2)], img2) {
		t.Fatal("page 1 not redone")
	}

	// The recovered manager continues the log: LSNs stay monotonic and
	// the loser's transaction ID is not reused.
	lsn, err := m2.Append(&store2clk, Record{Txn: m2.NextTxnID(), Kind: KindBegin})
	if err != nil {
		t.Fatal(err)
	}
	if lsn <= loserLSN {
		t.Fatalf("recovered LSN %d not past %d", lsn, loserLSN)
	}
	if id := m2.NextTxnID(); id <= 2 {
		t.Fatalf("txn id %d reused", id)
	}
}

func TestSegmentRolloverAndCheckpoint(t *testing.T) {
	store := pagestore.NewStore()
	mgr := testMgr(t, store)
	var clk simclock.Clock

	cfg := Config{SegmentPages: 2, GroupCommitWindow: 0}
	m, err := New(&clk, mgr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Create(7); err != nil {
		t.Fatal(err)
	}

	// Big images force rollovers: 10 committed txns of ~6KB each across
	// 16KB segments.
	img := bytes.Repeat([]byte{0x5A}, 6000)
	for i := 0; i < 10; i++ {
		id := m.NextTxnID()
		if _, err := m.Append(&clk, Record{Txn: id, Kind: KindPage, Obj: 7, Page: int64(i), Image: img}); err != nil {
			t.Fatal(err)
		}
		lsn, err := m.Append(&clk, Record{Txn: id, Kind: KindCommit})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Flush(&clk, lsn); err != nil {
			t.Fatal(err)
		}
	}
	if s := m.Stats(); s.Segments < 2 {
		t.Fatalf("expected rollovers, live segments = %d", s.Segments)
	}

	// Recovery across multiple segments applies everything.
	mgr2 := testMgr(t, store)
	var clk2 simclock.Clock
	_, stats, err := Recover(&clk2, mgr2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.PagesApplied != 10 || stats.CommittedTxns != 10 {
		t.Fatalf("recover: %+v", stats)
	}

	// Checkpoint truncates old segments (TRIM) and later recovery still
	// works from the shortened log.
	pool := newTestPool(mgr)
	if err := m.Checkpoint(&clk, pool); err != nil {
		t.Fatal(err)
	}
	if s := m.Stats(); s.Segments != 1 {
		t.Fatalf("after checkpoint, live segments = %d", s.Segments)
	}
	id := m.NextTxnID()
	if _, err := m.Append(&clk, Record{Txn: id, Kind: KindPage, Obj: 7, Page: 20, Image: img}); err != nil {
		t.Fatal(err)
	}
	lsn, err := m.Append(&clk, Record{Txn: id, Kind: KindCommit})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Flush(&clk, lsn); err != nil {
		t.Fatal(err)
	}
	mgr3 := testMgr(t, store)
	var clk3 simclock.Clock
	_, stats, err = Recover(&clk3, mgr3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.PagesApplied != 1 || stats.CommittedTxns != 1 {
		t.Fatalf("post-checkpoint recover: %+v", stats)
	}
	if stats.Elapsed <= 0 {
		t.Fatal("recovery consumed no simulated time")
	}
}

// TestRecoverDropsUnnamedSegments leaves behind, on the heap store, the
// segment objects a crash inside a rollover (the next segment, created
// before the meta page names it) or a checkpoint (a truncated segment not
// yet deleted) can leave. Recovery must delete both, so the recovered
// log rolls over again.
func TestRecoverDropsUnnamedSegments(t *testing.T) {
	store := pagestore.NewStore()
	mgr := testMgr(t, store)
	var clk simclock.Clock
	cfg := Config{SegmentPages: 2}
	m, err := New(&clk, mgr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	img := bytes.Repeat([]byte{0x5A}, 6000)
	commit := func(m *Manager, clk *simclock.Clock) {
		t.Helper()
		id := m.NextTxnID()
		if _, err := m.Append(clk, Record{Txn: id, Kind: KindPage, Obj: 7, Image: img}); err != nil {
			t.Fatal(err)
		}
		lsn, err := m.Append(clk, Record{Txn: id, Kind: KindCommit})
		if err == nil {
			err = m.Flush(clk, lsn)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Create(7); err != nil {
		t.Fatal(err)
	}
	for m.Stats().Segments < 3 {
		commit(m, &clk)
	}
	if err := m.Checkpoint(&clk, newTestPool(mgr)); err != nil {
		t.Fatal(err)
	}
	below, next := m.segObject(m.oldestSeg-1), m.segObject(m.activeSeg+1)
	for _, id := range []pagestore.ObjectID{below, next} {
		if err := store.Create(id); err != nil {
			t.Fatal(err)
		}
	}

	var clk2 simclock.Clock
	m2, _, err := Recover(&clk2, testMgr(t, store), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []pagestore.ObjectID{below, next} {
		if store.Exists(id) {
			t.Fatalf("recovery kept segment object %d, which the meta page does not name", id)
		}
	}
	for segs := m2.Stats().Segments; m2.Stats().Segments == segs; {
		commit(m2, &clk2)
	}
}

func TestLogTrafficClassified(t *testing.T) {
	store := pagestore.NewStore()
	sys, err := hybrid.New(hybrid.Config{Mode: hybrid.HStorage, CacheBlocks: 256})
	if err != nil {
		t.Fatal(err)
	}
	mgr := storagemgr.New(store, sys, policy.NewAssignmentTable(dss.DefaultPolicySpace()))
	var clk simclock.Clock
	m, err := New(&clk, mgr, Config{SegmentPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	id := m.NextTxnID()
	if _, err := m.Append(&clk, Record{Txn: id, Kind: KindPage, Obj: 99, Page: 0, Image: bytes.Repeat([]byte{1}, 3000)}); err != nil {
		t.Fatal(err)
	}
	lsn, err := m.Append(&clk, Record{Txn: id, Kind: KindCommit})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Flush(&clk, lsn); err != nil {
		t.Fatal(err)
	}
	snap := sys.Stats()
	if snap.Class(dss.ClassLog).WriteBlocks == 0 {
		t.Fatal("log writes not classified under dss.ClassLog")
	}
	ts := mgr.TypeStats()
	if ts[policy.LogRequest].Blocks == 0 {
		t.Fatal("log traffic not counted as LogRequest")
	}
}
