package experiments

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"hstoragedb/internal/dss"
	"hstoragedb/internal/engine/policy"
	"hstoragedb/internal/hybrid"
)

// TypeShare is one query's request-type mix (one bar of Figure 4).
type TypeShare struct {
	Query    int
	Requests map[policy.RequestType]float64 // fraction of requests
	Blocks   map[policy.RequestType]float64 // fraction of blocks
}

// TypeShares is Figure 4: one TypeShare per TPC-H query.
type TypeShares []TypeShare

// Fig4 reproduces Figure 4: the diversity of I/O request types across the
// 22 TPC-H queries. Each query runs once on a fresh hStorage instance and
// the storage manager's classification counters are normalized.
func (e *Env) Fig4() (TypeShares, error) {
	out := make(TypeShares, 0, 22)
	for q := 1; q <= 22; q++ {
		run, err := e.RunSingle(q, hybrid.HStorage)
		if err != nil {
			return nil, err
		}
		var totReq, totBlk int64
		for _, ts := range run.TypeStats {
			totReq += ts.Requests
			totBlk += ts.Blocks
		}
		share := TypeShare{
			Query:    q,
			Requests: map[policy.RequestType]float64{},
			Blocks:   map[policy.RequestType]float64{},
		}
		for _, t := range policy.RequestTypes() {
			ts := run.TypeStats[t]
			if totReq > 0 {
				share.Requests[t] = float64(ts.Requests) / float64(totReq)
			}
			if totBlk > 0 {
				share.Blocks[t] = float64(ts.Blocks) / float64(totBlk)
			}
		}
		out = append(out, share)
	}
	return out, nil
}

// Format renders both panels of Figure 4.
func (shares TypeShares) Format() string {
	var b strings.Builder
	b.WriteString("Figure 4: diversity of I/O requests in TPC-H queries\n")
	b.WriteString("(a) percentage of requests / (b) percentage of blocks\n")
	fmt.Fprintf(&b, "%-4s %28s | %28s\n", "Q", "seq/rand/temp/upd (req %)", "seq/rand/temp/upd (blk %)")
	for _, s := range shares {
		fmt.Fprintf(&b, "Q%-3d %6.1f %6.1f %6.1f %6.1f | %6.1f %6.1f %6.1f %6.1f\n",
			s.Query,
			100*s.Requests[policy.SequentialRequest], 100*s.Requests[policy.RandomRequest],
			100*s.Requests[policy.TempRequest], 100*s.Requests[policy.UpdateRequest],
			100*s.Blocks[policy.SequentialRequest], 100*s.Blocks[policy.RandomRequest],
			100*s.Blocks[policy.TempRequest], 100*s.Blocks[policy.UpdateRequest])
	}
	return b.String()
}

// ModeTimes is one query's execution time under the four configurations
// (one group of bars in Figures 5, 6 and 9).
type ModeTimes struct {
	Query int
	Times map[hybrid.Mode]time.Duration
	Runs  map[hybrid.Mode]QueryRun
}

// ModeTimesTable is one of Figures 5, 6 and 9: a titled group of
// ModeTimes rows. It marshals as the rows alone.
type ModeTimesTable struct {
	Title string
	Rows  []ModeTimes
}

// MarshalJSON implements json.Marshaler.
func (t ModeTimesTable) MarshalJSON() ([]byte, error) { return json.Marshal(t.Rows) }

// queryTimes runs each listed query under all four modes.
func (e *Env) queryTimes(queries ...int) ([]ModeTimes, error) {
	out := make([]ModeTimes, 0, len(queries))
	for _, q := range queries {
		runs, err := e.RunAllModes(q)
		if err != nil {
			return nil, err
		}
		mt := ModeTimes{Query: q, Times: map[hybrid.Mode]time.Duration{}, Runs: runs}
		for mode, r := range runs {
			mt.Times[mode] = r.Elapsed
		}
		out = append(out, mt)
	}
	return out, nil
}

// Fig5 reproduces Figure 5: execution times of the sequential-dominated
// queries Q1, Q5, Q11, Q19.
func (e *Env) Fig5() ([]ModeTimes, error) { return e.queryTimes(1, 5, 11, 19) }

// Fig6 reproduces Figure 6: execution times of the random-dominated
// queries Q9 and Q21.
func (e *Env) Fig6() ([]ModeTimes, error) { return e.queryTimes(9, 21) }

// Fig9 reproduces Figure 9: execution time of the temp-data query Q18.
func (e *Env) Fig9() ([]ModeTimes, error) { return e.queryTimes(18) }

// Format renders a Figure 5/6/9-style table.
func (t ModeTimesTable) Format() string {
	var b strings.Builder
	b.WriteString(t.Title + "\n")
	fmt.Fprintf(&b, "%-5s %12s %12s %12s %12s\n", "Q", "HDD-only", "LRU", "hStorage-DB", "SSD-only")
	for _, mt := range t.Rows {
		fmt.Fprintf(&b, "Q%-4d %12s %12s %12s %12s\n", mt.Query,
			fmtDur(mt.Times[hybrid.HDDOnly]), fmtDur(mt.Times[hybrid.LRU]),
			fmtDur(mt.Times[hybrid.HStorage]), fmtDur(mt.Times[hybrid.SSDOnly]))
	}
	return b.String()
}

func fmtDur(d time.Duration) string {
	return d.Round(time.Millisecond).String()
}

// Table4Row is one row of Table 4: LRU cache statistics for a
// sequential-dominated query.
type Table4Row struct {
	Query    int
	Accessed int64
	Hits     int64
	Ratio    float64
}

// Table4Rows is Table 4.
type Table4Rows []Table4Row

// Table4 reproduces Table 4: cache statistics for sequential requests
// under LRU for Q1, Q5, Q11, Q19.
func (e *Env) Table4() (Table4Rows, error) {
	queries := []int{1, 5, 11, 19}
	out := make(Table4Rows, 0, len(queries))
	for _, q := range queries {
		run, err := e.RunSingle(q, hybrid.LRU)
		if err != nil {
			return nil, err
		}
		space := dss.DefaultPolicySpace()
		cs := run.Storage.Class(space.Sequential())
		row := Table4Row{Query: q, Accessed: cs.ReadBlocks, Hits: cs.ReadHits}
		if cs.ReadBlocks > 0 {
			row.Ratio = float64(cs.ReadHits) / float64(cs.ReadBlocks)
		}
		out = append(out, row)
	}
	return out, nil
}

// Format renders Table 4.
func (rows Table4Rows) Format() string {
	var b strings.Builder
	b.WriteString("Table 4: cache statistics for sequential requests with LRU\n")
	fmt.Fprintf(&b, "%-5s %15s %12s %10s\n", "Q", "accessed blocks", "cache hits", "hit ratio")
	for _, r := range rows {
		fmt.Fprintf(&b, "Q%-4d %15d %12d %9.1f%%\n", r.Query, r.Accessed, r.Hits, 100*r.Ratio)
	}
	return b.String()
}

// PrioRow is one priority's cache statistics (Tables 5-7).
type PrioRow struct {
	Label    string
	Accessed int64
	Hits     int64
}

// Ratio returns the hit ratio.
func (r PrioRow) Ratio() float64 {
	if r.Accessed == 0 {
		return 0
	}
	return float64(r.Hits) / float64(r.Accessed)
}

// Table5Rows is Table 5: Q9's per-priority rows under hStorage-DB.
type Table5Rows []PrioRow

// Table5 reproduces Table 5: per-priority cache statistics for Q9's
// random requests under hStorage-DB.
func (e *Env) Table5() (Table5Rows, error) {
	run, err := e.RunSingle(9, hybrid.HStorage)
	if err != nil {
		return nil, err
	}
	return prioRows(run.Storage, []dss.Class{2, 3}), nil
}

// Format renders Table 5.
func (rows Table5Rows) Format() string {
	return PrioTable{Title: "Table 5: Q9 random-request cache statistics (hStorage-DB)", HStorage: rows}.Format()
}

// PrioTable is a Table 5/6/7-style block: one query's per-class cache
// statistics under hStorage-DB and, in Tables 6 and 7, under LRU.
type PrioTable struct {
	Title    string    `json:"-"`
	HStorage []PrioRow `json:"hstorage"`
	LRU      []PrioRow `json:"lru"`
}

// Table6 reproduces Table 6: Q21's cache statistics under both
// hStorage-DB and LRU, for priorities 2, 3 and the sequential class.
func (e *Env) Table6() (hs, lru []PrioRow, err error) {
	return e.prioCompare(21, 2, 3, dss.DefaultPolicySpace().Sequential())
}

// Table7 reproduces Table 7: Q18's cache statistics for sequential and
// temporary-data reads under both systems.
func (e *Env) Table7() (hs, lru []PrioRow, err error) {
	space := dss.DefaultPolicySpace()
	return e.prioCompare(18, space.Sequential(), space.Temporary())
}

// prioCompare runs query q under hStorage-DB and under LRU and returns
// the listed classes' cache statistics for each.
func (e *Env) prioCompare(q int, classes ...dss.Class) (hs, lru []PrioRow, err error) {
	hRun, err := e.RunSingle(q, hybrid.HStorage)
	if err != nil {
		return nil, nil, err
	}
	lRun, err := e.RunSingle(q, hybrid.LRU)
	if err != nil {
		return nil, nil, err
	}
	return prioRows(hRun.Storage, classes), prioRows(lRun.Storage, classes), nil
}

func prioRows(snap hybrid.Snapshot, classes []dss.Class) []PrioRow {
	space := dss.DefaultPolicySpace()
	out := make([]PrioRow, 0, len(classes))
	for _, c := range classes {
		label := c.String()
		switch c {
		case space.Sequential():
			label = "sequential"
		case space.Temporary():
			label = "temp"
		}
		// The paper's per-class tables count reads: temp-data writes, for
		// example, are cache misses by construction and are excluded.
		cs := snap.Class(c)
		out = append(out, PrioRow{Label: label, Accessed: cs.ReadBlocks, Hits: cs.ReadHits})
	}
	return out
}

// Format renders the block; a system with no rows is left out.
func (t PrioTable) Format() string {
	var b strings.Builder
	b.WriteString(t.Title + "\n")
	for _, sec := range []struct {
		name string
		rows []PrioRow
	}{{"hStorage-DB", t.HStorage}, {"LRU", t.LRU}} {
		if sec.rows == nil {
			continue
		}
		fmt.Fprintf(&b, "%s:\n", sec.name)
		fmt.Fprintf(&b, "  %-12s %15s %12s %10s\n", "class", "accessed blocks", "cache hits", "hit ratio")
		for _, r := range sec.rows {
			fmt.Fprintf(&b, "  %-12s %15d %12d %9.1f%%\n", r.Label, r.Accessed, r.Hits, 100*r.Ratio())
		}
	}
	return b.String()
}
