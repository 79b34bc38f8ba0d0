package experiments

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"hstoragedb/internal/engine"
	"hstoragedb/internal/hybrid"
	"hstoragedb/internal/tpch"
)

// ThroughputResult is Table 9 plus the per-query averages Figure 12b
// needs.
type ThroughputResult struct {
	// QueriesPerHour is the throughput metric per mode (the paper's
	// Table 9 values are in this unit family).
	QueriesPerHour map[hybrid.Mode]float64
	// Makespan is the simulated time until the last stream finished.
	Makespan map[hybrid.Mode]time.Duration
	// AvgQueryTime maps mode -> query -> mean execution time inside the
	// throughput run (Figure 12b reads Q9 and Q18 from here).
	AvgQueryTime map[hybrid.Mode]map[int]time.Duration
}

// Table9 reproduces the throughput test of Section 6.4: three query
// streams plus one update stream running concurrently against a shared
// instance, per storage configuration. Streams contend for the devices
// through the shared queues.
func (e *Env) Table9(streams int) (*ThroughputResult, error) {
	if streams <= 0 {
		streams = 3
	}
	res := &ThroughputResult{
		QueriesPerHour: map[hybrid.Mode]float64{},
		Makespan:       map[hybrid.Mode]time.Duration{},
		AvgQueryTime:   map[hybrid.Mode]map[int]time.Duration{},
	}
	orders := tpch.ThroughputOrders(streams)

	for _, mode := range hybrid.Modes() {
		inst, err := e.Instance(mode)
		if err != nil {
			return nil, err
		}

		var (
			mu   sync.Mutex
			perQ = map[int][]time.Duration{}
		)

		// Query streams.
		ends := make([]time.Duration, streams+1)
		fns := make([]func() error, 0, streams+1)
		for i := 0; i < streams; i++ {
			fns = append(fns, func() error {
				sess := inst.NewSession()
				for _, q := range orders[i] {
					op, err := e.DS.Query(q, e.Cfg.Seed+int64(i)+1)
					if err != nil {
						return err
					}
					_, elapsed, err := sess.ExecuteDiscard(op)
					if err != nil {
						return fmt.Errorf("stream %d Q%d on %v: %w", i, q, mode, err)
					}
					mu.Lock()
					perQ[q] = append(perQ[q], elapsed)
					mu.Unlock()
				}
				ends[i] = sess.Clk.Now()
				return nil
			})
		}

		// Update stream: one RF1/RF2 pair per query stream. The dataset
		// mutators are not concurrency-safe against each other, so the
		// update stream serializes its own pairs (as the TPC-H driver
		// does) on its own session.
		fns = append(fns, func() error {
			sess := inst.NewSession()
			for i := 0; i < streams; i++ {
				if _, err := e.DS.RF1(sess); err != nil {
					return err
				}
				if _, err := e.DS.RF2(sess); err != nil {
					return err
				}
			}
			ends[streams] = sess.Clk.Now()
			return nil
		})
		if err := engine.RunStreams(fns...); err != nil {
			return nil, err
		}

		span := makespan(ends...)
		res.Makespan[mode] = span
		if span > 0 {
			res.QueriesPerHour[mode] = float64(streams*22) * float64(time.Hour) / float64(span)
		}
		avg := map[int]time.Duration{}
		for q, ts := range perQ {
			var sum time.Duration
			for _, t := range ts {
				sum += t
			}
			avg[q] = sum / time.Duration(len(ts))
		}
		res.AvgQueryTime[mode] = avg
	}
	return res, nil
}

// throughput runs the throughput test once per environment: Figure 12
// reads its per-query averages from the same run Table 9 reports.
func (e *Env) throughput(streams int) (*ThroughputResult, error) {
	if e.t9 == nil {
		res, err := e.Table9(streams)
		if err != nil {
			return nil, err
		}
		e.t9 = res
	}
	return e.t9, nil
}

// Format renders Table 9.
func (res *ThroughputResult) Format() string {
	var b strings.Builder
	b.WriteString("Table 9: TPC-H throughput results (queries/hour of simulated time)\n")
	fmt.Fprintf(&b, "%12s %12s %12s %12s\n", "HDD-only", "LRU", "hStorage-DB", "SSD-only")
	fmt.Fprintf(&b, "%12.1f %12.1f %12.1f %12.1f\n",
		res.QueriesPerHour[hybrid.HDDOnly], res.QueriesPerHour[hybrid.LRU],
		res.QueriesPerHour[hybrid.HStorage], res.QueriesPerHour[hybrid.SSDOnly])
	b.WriteString("makespans: ")
	for _, m := range hybrid.Modes() {
		fmt.Fprintf(&b, "%v=%s  ", m, fmtDur(res.Makespan[m]))
	}
	b.WriteString("\n")
	return b.String()
}

// Fig12Result compares Q9/Q18 standalone vs in-throughput times.
type Fig12Result struct {
	Standalone map[int]map[hybrid.Mode]time.Duration // query -> mode -> time
	Throughput map[int]map[hybrid.Mode]time.Duration
}

// Fig12 reproduces Figure 12: Q9 and Q18 execution times standalone (a)
// versus their averages inside the throughput test (b).
func (e *Env) Fig12(t9 *ThroughputResult) (*Fig12Result, error) {
	res := &Fig12Result{
		Standalone: map[int]map[hybrid.Mode]time.Duration{},
		Throughput: map[int]map[hybrid.Mode]time.Duration{},
	}
	for _, q := range []int{9, 18} {
		runs, err := e.RunAllModes(q)
		if err != nil {
			return nil, err
		}
		res.Standalone[q] = map[hybrid.Mode]time.Duration{}
		res.Throughput[q] = map[hybrid.Mode]time.Duration{}
		for mode, r := range runs {
			res.Standalone[q][mode] = r.Elapsed
		}
		for mode, avg := range t9.AvgQueryTime {
			res.Throughput[q][mode] = avg[q]
		}
	}
	return res, nil
}

// Format renders Figure 12.
func (res *Fig12Result) Format() string {
	var b strings.Builder
	b.WriteString("Figure 12: Q9 and Q18, standalone (a) vs in-throughput average (b)\n")
	for _, panel := range []struct {
		name string
		data map[int]map[hybrid.Mode]time.Duration
	}{
		{"(a) standalone", res.Standalone},
		{"(b) throughput avg", res.Throughput},
	} {
		b.WriteString(panel.name + "\n")
		fmt.Fprintf(&b, "%-5s %12s %12s %12s %12s\n", "Q", "HDD-only", "LRU", "hStorage-DB", "SSD-only")
		for _, q := range []int{9, 18} {
			row := panel.data[q]
			fmt.Fprintf(&b, "Q%-4d %12s %12s %12s %12s\n", q,
				fmtDur(row[hybrid.HDDOnly]), fmtDur(row[hybrid.LRU]),
				fmtDur(row[hybrid.HStorage]), fmtDur(row[hybrid.SSDOnly]))
		}
	}
	return b.String()
}
