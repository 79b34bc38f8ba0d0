package tpch

import (
	"testing"

	"hstoragedb/internal/dss"
	"hstoragedb/internal/engine"
	"hstoragedb/internal/engine/exec"
	"hstoragedb/internal/engine/policy"
	"hstoragedb/internal/hybrid"
)

func loadSmall(t testing.TB) *Dataset {
	t.Helper()
	ds, err := Load(0.002)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	return ds
}

func smallInstance(t testing.TB, ds *Dataset, mode hybrid.Mode) *engine.Instance {
	t.Helper()
	inst, err := ds.DB.NewInstance(engine.InstanceConfig{
		Storage:         hybrid.Config{Mode: mode, CacheBlocks: 1024},
		BufferPoolPages: 64,
		WorkMem:         500,
	})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestSchemaAndIndexInventory(t *testing.T) {
	if len(Schemas()) != 8 {
		t.Fatalf("%d schemas, want 8 TPC-H tables", len(Schemas()))
	}
	// Table 3: exactly nine indexes with the paper's columns.
	ix := Indexes()
	if len(ix) != 9 {
		t.Fatalf("%d indexes, want 9 (Table 3)", len(ix))
	}
	wantCols := map[string]string{
		"lineitem": "l_partkey", // first entry of Table 3
		"orders":   "o_orderkey",
		"part":     "p_partkey",
	}
	for table, col := range wantCols {
		found := false
		for _, i := range ix {
			if i.Table == table && i.Column == col {
				found = true
			}
		}
		if !found {
			t.Errorf("missing index %s(%s)", table, col)
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a := loadSmall(t)
	b := loadSmall(t)
	if a.Orders != b.Orders || a.Lineitems != b.Lineitems {
		t.Fatalf("cardinalities differ: %d/%d vs %d/%d", a.Orders, a.Lineitems, b.Orders, b.Lineitems)
	}
	if a.DB.Store.TotalPages() != b.DB.Store.TotalPages() {
		t.Fatalf("page counts differ: %d vs %d", a.DB.Store.TotalPages(), b.DB.Store.TotalPages())
	}
}

func TestCardinalityRatios(t *testing.T) {
	ds := loadSmall(t)
	if ds.Lineitems < 3*ds.Orders || ds.Lineitems > 7*ds.Orders {
		t.Fatalf("lineitem/orders ratio off: %d/%d", ds.Lineitems, ds.Orders)
	}
	cat := ds.DB.Cat
	if cat.MustTable("region").Rows != 5 || cat.MustTable("nation").Rows != 25 {
		t.Fatal("fixed tables wrong")
	}
}

// TestQ9Priorities verifies the headline of Table 5: Q9's random requests
// to supplier carry priority 2 and to orders priority 3.
func TestQ9Priorities(t *testing.T) {
	ds := loadSmall(t)
	op := ds.MustQuery(9, 0)
	exec.AssignLevels(op)
	info := exec.ExtractQueryInfo(op)
	space := dss.DefaultPolicySpace()

	supplier := ds.DB.Cat.MustTable("supplier").ID
	orders := ds.DB.Cat.MustTable("orders").ID
	min := func(ls []int) int {
		m := ls[0]
		for _, l := range ls {
			if l < m {
				m = l
			}
		}
		return m
	}
	sPrio := policy.RandomPriority(space, min(info.Levels[supplier]), info.LLow, info.LHigh)
	oPrio := policy.RandomPriority(space, min(info.Levels[orders]), info.LLow, info.LHigh)
	if sPrio != 2 {
		t.Errorf("supplier priority %v, want 2", sPrio)
	}
	if oPrio != 3 {
		t.Errorf("orders priority %v, want 3", oPrio)
	}
	// lineitem and part are only scanned sequentially in Q9's plan.
	lineitem := ds.DB.Cat.MustTable("lineitem").ID
	if len(info.Levels[lineitem]) != 0 {
		t.Error("lineitem randomly accessed in Q9; Figure 7 has it sequential")
	}
}

// TestQ21Priorities verifies Table 6's setup: orders at priority 2,
// lineitem (via its index probes) at priority 3.
func TestQ21Priorities(t *testing.T) {
	ds := loadSmall(t)
	op := ds.MustQuery(21, 0)
	exec.AssignLevels(op)
	info := exec.ExtractQueryInfo(op)
	space := dss.DefaultPolicySpace()

	orders := ds.DB.Cat.MustTable("orders").ID
	lineitem := ds.DB.Cat.MustTable("lineitem").ID
	min := func(ls []int) int {
		m := ls[0]
		for _, l := range ls {
			if l < m {
				m = l
			}
		}
		return m
	}
	if got := policy.RandomPriority(space, min(info.Levels[orders]), info.LLow, info.LHigh); got != 2 {
		t.Errorf("orders priority %v, want 2", got)
	}
	if got := policy.RandomPriority(space, min(info.Levels[lineitem]), info.LLow, info.LHigh); got != 3 {
		t.Errorf("lineitem priority %v, want 3", got)
	}
}

// TestQ18GeneratesTemp verifies Figure 10 / Table 7's setup: Q18 produces
// temporary-data traffic and no random traffic.
func TestQ18GeneratesTemp(t *testing.T) {
	ds := loadSmall(t)
	inst := smallInstance(t, ds, hybrid.HStorage)
	sess := inst.NewSession()
	if _, _, err := sess.ExecuteDiscard(ds.MustQuery(18, 0)); err != nil {
		t.Fatal(err)
	}
	ts := inst.Mgr.TypeStats()
	if ts[policy.TempRequest].Blocks == 0 {
		t.Fatal("Q18 produced no temp traffic")
	}
	if ts[policy.RandomRequest].Blocks != 0 {
		t.Fatalf("Q18 produced %d random blocks; Figure 10's plan has none",
			ts[policy.RandomRequest].Blocks)
	}
}

// TestQ1Sequential verifies Figure 4's Q1 bar: requests are (almost)
// entirely sequential.
func TestQ1Sequential(t *testing.T) {
	ds := loadSmall(t)
	inst := smallInstance(t, ds, hybrid.HStorage)
	sess := inst.NewSession()
	if _, _, err := sess.ExecuteDiscard(ds.MustQuery(1, 0)); err != nil {
		t.Fatal(err)
	}
	ts := inst.Mgr.TypeStats()
	var total int64
	for _, s := range ts {
		total += s.Blocks
	}
	seq := ts[policy.SequentialRequest].Blocks
	if float64(seq)/float64(total) < 0.95 {
		t.Fatalf("Q1 sequential fraction %.2f, want >= 0.95", float64(seq)/float64(total))
	}
}

func TestSeedVariesParameters(t *testing.T) {
	ds := loadSmall(t)
	inst := smallInstance(t, ds, hybrid.HDDOnly)
	sess := inst.NewSession()
	// Q6 with different seeds should (usually) aggregate different rows.
	n1, _, err := sess.ExecuteDiscard(ds.MustQuery(6, 0))
	if err != nil {
		t.Fatal(err)
	}
	_ = n1
	// Just assert different seeds build runnable plans.
	for seed := int64(1); seed <= 3; seed++ {
		if _, _, err := sess.ExecuteDiscard(ds.MustQuery(6, seed)); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestRF1RF2RestoreRowCounts(t *testing.T) {
	ds := loadSmall(t)
	inst := smallInstance(t, ds, hybrid.HStorage)
	sess := inst.NewSession()

	countOrders := func() int64 {
		s := inst.NewSession()
		n, _, err := s.ExecuteDiscard(&exec.SeqScan{Table: exec.NewTableHandle(ds.DB.Cat.MustTable("orders"))})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	before := countOrders()
	ins, err := ds.RF1(sess)
	if err != nil {
		t.Fatal(err)
	}
	if got := countOrders(); got != before+int64(ins) {
		t.Fatalf("after RF1: %d orders, want %d", got, before+int64(ins))
	}
	if ds.PendingRF() != ins {
		t.Fatalf("pending %d, want %d", ds.PendingRF(), ins)
	}
	del, err := ds.RF2(sess)
	if err != nil {
		t.Fatal(err)
	}
	if del != ins {
		t.Fatalf("RF2 deleted %d of %d", del, ins)
	}
	if got := countOrders(); got != before {
		t.Fatalf("after RF2: %d orders, want %d", got, before)
	}
	if ds.PendingRF() != 0 {
		t.Fatal("pending RF orders remain")
	}
}

// TestRFUpdatesAreWriteBuffered verifies Rule 4 end to end: RF1 traffic
// reaches storage in the write-buffer class.
func TestRFUpdatesAreWriteBuffered(t *testing.T) {
	ds := loadSmall(t)
	inst := smallInstance(t, ds, hybrid.HStorage)
	sess := inst.NewSession()
	inst.ResetStats()
	if _, err := ds.RF1(sess); err != nil {
		t.Fatal(err)
	}
	if err := inst.Pool.FlushAll(&sess.Clk); err != nil {
		t.Fatal(err)
	}
	snap := inst.Sys.Stats()
	if snap.Class(dss.ClassWriteBuffer).WriteBlocks == 0 {
		t.Fatal("RF1 produced no write-buffer traffic")
	}
	// Clean up for other tests' sanity.
	if _, err := ds.RF2(sess); err != nil {
		t.Fatal(err)
	}
}

func TestStreamOrders(t *testing.T) {
	if len(PowerOrder()) != 22 {
		t.Fatalf("power order has %d entries", len(PowerOrder()))
	}
	seen := map[int]bool{}
	for _, q := range PowerOrder() {
		if q < 1 || q > 22 || seen[q] {
			t.Fatalf("bad power order: %v", PowerOrder())
		}
		seen[q] = true
	}
	for i, stream := range ThroughputOrders(5) {
		seen := map[int]bool{}
		for _, q := range stream {
			if q < 1 || q > 22 || seen[q] {
				t.Fatalf("stream %d invalid: %v", i, stream)
			}
			seen[q] = true
		}
		if len(stream) != 22 {
			t.Fatalf("stream %d has %d queries", i, len(stream))
		}
	}
	if len(ThroughputOrders(99)) != 5 {
		t.Fatal("ThroughputOrders should cap at available permutations")
	}
}

func TestDayConversion(t *testing.T) {
	if Day(1970, 1, 1) != 0 {
		t.Fatalf("epoch day %d", Day(1970, 1, 1))
	}
	if Day(1970, 1, 2) != 1 {
		t.Fatalf("day 2 = %d", Day(1970, 1, 2))
	}
	if EndDate <= StartDate {
		t.Fatal("date domain inverted")
	}
}

// instCfg builds an instance config around a storage config with the
// small-test defaults.
func instCfg(storage hybrid.Config) engine.InstanceConfig {
	return engine.InstanceConfig{
		Storage:         storage,
		BufferPoolPages: 64,
		WorkMem:         500,
	}
}
