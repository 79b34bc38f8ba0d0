package wal

import (
	"bytes"
	"reflect"
	"testing"

	"hstoragedb/internal/pagestore"
	"hstoragedb/internal/simclock"
)

// TestRecoverOutcomes pins what Recover decides about each shape of
// transaction history: the counts in RecoveryStats, the in-doubt set, the
// coordinator decisions, which pages redo writes, and that the recovered
// log continues past every LSN and transaction ID it read.
func TestRecoverOutcomes(t *testing.T) {
	const obj = pagestore.ObjectID(42)
	img := func(b byte) []byte { return bytes.Repeat([]byte{b}, 3000) }
	page := func(txn, pg int64, b byte) Record {
		return Record{Txn: txn, Kind: KindPage, Obj: obj, Page: pg, Image: img(b)}
	}
	rec := func(txn int64, k Kind, gtid int64) Record { return Record{Txn: txn, Kind: k, Page: gtid} }
	// checkpoint is a script step, not a record: Manager.Checkpoint.
	checkpoint := Record{Kind: KindCheckpoint}

	cases := []struct {
		name      string
		script    []Record
		stats     RecoveryStats // the counters, Elapsed and Segments ignored
		inDoubt   []InDoubtTxn
		decisions map[int64]bool
		pages     map[int64]byte // page -> byte it holds after recovery
	}{{
		name:   "committed",
		script: []Record{rec(1, KindBegin, 0), page(1, 0, 0x11), page(1, 1, 0x12), rec(1, KindCommit, 0)},
		stats:  RecoveryStats{Records: 4, CommittedTxns: 1, PagesApplied: 2},
		pages:  map[int64]byte{0: 0x11, 1: 0x12},
	}, {
		name:   "loser without a commit record",
		script: []Record{rec(1, KindBegin, 0), page(1, 0, 0x21)},
		stats:  RecoveryStats{Records: 2, LoserTxns: 1},
		pages:  map[int64]byte{0: 0},
	}, {
		name:   "explicit abort",
		script: []Record{rec(1, KindBegin, 0), page(1, 0, 0x31), rec(1, KindAbort, 0)},
		stats:  RecoveryStats{Records: 3, LoserTxns: 1},
		pages:  map[int64]byte{0: 0},
	}, {
		name:    "prepared and undecided",
		script:  []Record{rec(1, KindBegin, 0), page(1, 0, 0x41), rec(1, KindPrepare, 77)},
		stats:   RecoveryStats{Records: 3, InDoubtTxns: 1},
		inDoubt: []InDoubtTxn{{Txn: 1, GTID: 77}},
		pages:   map[int64]byte{0: 0},
	}, {
		name: "prepared then committed",
		script: []Record{rec(1, KindBegin, 0), page(1, 0, 0x51), rec(1, KindPrepare, 78),
			rec(1, KindCommit, 78)},
		stats: RecoveryStats{Records: 4, CommittedTxns: 1, PagesApplied: 1},
		pages: map[int64]byte{0: 0x51},
	}, {
		name: "prepared then aborted",
		script: []Record{rec(1, KindBegin, 0), page(1, 0, 0x61), rec(1, KindPrepare, 79),
			rec(1, KindAbort, 79)},
		stats: RecoveryStats{Records: 4, LoserTxns: 1},
		pages: map[int64]byte{0: 0},
	}, {
		name:      "decision log",
		script:    []Record{rec(500, KindDecideCommit, 0), rec(501, KindDecideAbort, 0)},
		stats:     RecoveryStats{Records: 2},
		decisions: map[int64]bool{500: true, 501: false},
	}, {
		name: "checkpoint in the middle",
		script: []Record{rec(1, KindBegin, 0), page(1, 0, 0x71), rec(1, KindCommit, 0),
			checkpoint,
			rec(2, KindBegin, 0), page(2, 1, 0x72), rec(2, KindCommit, 0),
			rec(3, KindBegin, 0), page(3, 2, 0x73), rec(3, KindPrepare, 80),
			rec(4, KindBegin, 0), page(4, 3, 0x74)},
		stats:   RecoveryStats{Records: 12, CommittedTxns: 1, InDoubtTxns: 1, LoserTxns: 1, PagesApplied: 1},
		inDoubt: []InDoubtTxn{{Txn: 3, GTID: 80}},
		// Page 0 holds what was written over it after the checkpoint:
		// txn 1's record precedes the checkpoint and is not redone.
		pages: map[int64]byte{0: 0xEE, 1: 0x72, 2: 0, 3: 0},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			store := pagestore.NewStore()
			mgr := testMgr(t, store)
			var clk simclock.Clock
			cfg := Config{SegmentPages: 8}
			m, err := New(&clk, mgr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := store.Create(obj); err != nil {
				t.Fatal(err)
			}
			var last LSN
			maxTxn := int64(0)
			for _, r := range tc.script {
				if r.Kind == KindCheckpoint {
					if err := m.Checkpoint(&clk, newTestPool(mgr)); err != nil {
						t.Fatal(err)
					}
					// Stand-in for a committed version written back
					// after the checkpoint: redo must leave it alone.
					if _, err := store.Write(obj, 0, img(0xEE)); err != nil {
						t.Fatal(err)
					}
					last++
					continue
				}
				if last, err = m.Append(&clk, r); err != nil {
					t.Fatal(err)
				}
				maxTxn = max(maxTxn, r.Txn)
			}
			if err := m.Flush(&clk, last); err != nil {
				t.Fatal(err)
			}

			var clk2 simclock.Clock
			m2, stats, err := Recover(&clk2, testMgr(t, store), cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := *stats
			got.Segments, got.Elapsed = 0, 0
			if got != tc.stats {
				t.Errorf("stats %+v, want %+v", got, tc.stats)
			}
			if in := m2.InDoubt(); len(in) != 0 || len(tc.inDoubt) != 0 {
				if !reflect.DeepEqual(in, tc.inDoubt) {
					t.Errorf("in doubt %v, want %v", in, tc.inDoubt)
				}
			}
			if d := m2.Decisions(); len(d) != 0 || len(tc.decisions) != 0 {
				if !reflect.DeepEqual(d, tc.decisions) {
					t.Errorf("decisions %v, want %v", d, tc.decisions)
				}
			}
			for pg, b := range tc.pages {
				data, _, err := store.Read(obj, pg)
				if err != nil {
					t.Fatal(err)
				}
				if len(data) == 0 || data[0] != b {
					t.Errorf("page %d starts %v, want %#x", pg, data[:min(len(data), 1)], b)
				}
			}

			// The recovered log continues past what it read.
			if id := m2.NextTxnID(); id <= maxTxn {
				t.Errorf("next txn id %d, want past %d", id, maxTxn)
			}
			lsn, err := m2.Append(&clk2, rec(maxTxn+1, KindBegin, 0))
			if err != nil {
				t.Fatal(err)
			}
			if lsn != last+1 {
				t.Errorf("next LSN %d, want %d", lsn, last+1)
			}
		})
	}
}
