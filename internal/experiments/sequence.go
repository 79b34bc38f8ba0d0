package experiments

import (
	"fmt"
	"strings"
	"time"

	"hstoragedb/internal/hybrid"
	"hstoragedb/internal/tpch"
)

// SeqStep is one element of the power-test sequence result.
type SeqStep struct {
	Label   string // "Q14", "RF1", ...
	Elapsed map[hybrid.Mode]time.Duration
}

// PowerResult is Figure 11 plus Table 8.
type PowerResult struct {
	Steps  []SeqStep
	Totals map[hybrid.Mode]time.Duration
}

// Fig11 reproduces Figure 11 / Table 8: the TPC-H power-test sequence
// (RF1, the 22 queries in power order, RF2) executed as one continuous
// stream per storage configuration. The paper omits LRU here; we do too.
func (e *Env) Fig11() (*PowerResult, error) {
	modes := []hybrid.Mode{hybrid.HDDOnly, hybrid.HStorage, hybrid.SSDOnly}
	labels := []string{"RF1"}
	for _, q := range tpch.PowerOrder() {
		labels = append(labels, fmt.Sprintf("Q%d", q))
	}
	labels = append(labels, "RF2")

	res := &PowerResult{Totals: map[hybrid.Mode]time.Duration{}}
	res.Steps = make([]SeqStep, len(labels))
	for i, l := range labels {
		res.Steps[i] = SeqStep{Label: l, Elapsed: map[hybrid.Mode]time.Duration{}}
	}

	for _, mode := range modes {
		inst, err := e.Instance(mode)
		if err != nil {
			return nil, err
		}
		sess := inst.NewSession()
		step := 0
		mark := func(d time.Duration) {
			res.Steps[step].Elapsed[mode] = d
			step++
		}

		start := sess.Clk.Now()
		if _, err := e.DS.RF1(sess); err != nil {
			return nil, err
		}
		mark(sess.Clk.Now() - start)

		for _, q := range tpch.PowerOrder() {
			op, err := e.DS.Query(q, e.Cfg.Seed)
			if err != nil {
				return nil, err
			}
			_, elapsed, err := sess.ExecuteDiscard(op)
			if err != nil {
				return nil, fmt.Errorf("power Q%d on %v: %w", q, mode, err)
			}
			mark(elapsed)
		}

		start = sess.Clk.Now()
		if _, err := e.DS.RF2(sess); err != nil {
			return nil, err
		}
		inst.Mgr.Wait(&sess.Clk)
		mark(sess.Clk.Now() - start)

		res.Totals[mode] = sess.Clk.Now()
	}
	return res, nil
}

// Format renders Figure 11 (both panels) and Table 8.
func (res *PowerResult) Format() string {
	short := tpch.ShortQueries()
	var b strings.Builder
	b.WriteString("Figure 11: execution times of queries packed into one stream\n")
	render := func(title string, filter func(string) bool) {
		b.WriteString(title + "\n")
		fmt.Fprintf(&b, "%-5s %12s %12s %12s\n", "step", "HDD-only", "hStorage-DB", "SSD-only")
		for _, s := range res.Steps {
			if !filter(s.Label) {
				continue
			}
			fmt.Fprintf(&b, "%-5s %12s %12s %12s\n", s.Label,
				fmtDur(s.Elapsed[hybrid.HDDOnly]), fmtDur(s.Elapsed[hybrid.HStorage]), fmtDur(s.Elapsed[hybrid.SSDOnly]))
		}
	}
	isShort := func(label string) bool {
		if label == "RF1" || label == "RF2" {
			return true
		}
		var q int
		fmt.Sscanf(label, "Q%d", &q)
		return short[q]
	}
	render("(a) short queries", isShort)
	render("(b) long queries", func(l string) bool { return !isShort(l) })

	b.WriteString("\nTable 8: total execution time of the sequence\n")
	modes := []hybrid.Mode{hybrid.HDDOnly, hybrid.HStorage, hybrid.SSDOnly}
	for _, m := range modes {
		fmt.Fprintf(&b, "  %-12s %s\n", m, fmtDur(res.Totals[m]))
	}
	return b.String()
}
