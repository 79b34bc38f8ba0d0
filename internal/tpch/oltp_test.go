package tpch

import (
	"testing"
	"time"

	"hstoragedb/internal/dss"
	"hstoragedb/internal/engine"
	"hstoragedb/internal/engine/catalog"
	"hstoragedb/internal/engine/heap"
	"hstoragedb/internal/engine/policy"
	"hstoragedb/internal/hybrid"
	"hstoragedb/internal/pagestore"
)

func TestOLTPRuns(t *testing.T) {
	ds := loadSmall(t)
	inst := smallInstance(t, ds, hybrid.HStorage)
	sess := inst.NewSession()
	inst.ResetStats()

	driver := ds.NewOLTP(1)
	if err := driver.Run(sess, 200); err != nil {
		t.Fatal(err)
	}
	if driver.NewOrders == 0 || driver.Payments == 0 || driver.OrderStatuses == 0 {
		t.Fatalf("mix incomplete: %d/%d/%d", driver.NewOrders, driver.Payments, driver.OrderStatuses)
	}
	if err := inst.Pool.FlushAll(&sess.Clk); err != nil {
		t.Fatal(err)
	}

	// The mix must exercise both Rule 2 (random reads) and Rule 4
	// (write-buffered updates).
	ts := inst.Mgr.TypeStats()
	if ts[policy.RandomRequest].Blocks == 0 {
		t.Error("no random traffic from the OLTP mix")
	}
	if ts[policy.UpdateRequest].Blocks == 0 {
		t.Error("no update traffic from the OLTP mix")
	}
	snap := inst.Sys.Stats()
	if snap.Class(dss.ClassWriteBuffer).WriteBlocks == 0 {
		t.Error("updates did not reach the write buffer")
	}
}

// TestOLTPSpaceFollowsRows bounds what the transactional mix costs in
// space: over 3,000 operations, orders and lineitem together grow by at
// most the encoded bytes of the rows NewOrder inserted over 8 KB, plus
// two pages — each table's last page part-filled. Every other new page
// is full to within one row, which this seed's 1,298 NewOrders meet with
// 0.4 page to spare (73 pages for 584,687 bytes). While NewOrder opened a
// fresh page per order and table, they grew by about two pages per
// NewOrder.
func TestOLTPSpaceFollowsRows(t *testing.T) {
	r := newTxnRig(t)
	store := r.ds.DB.Store
	tables := []*catalog.TableInfo{r.ds.DB.Cat.MustTable("orders"), r.ds.DB.Cat.MustTable("lineitem")}
	var grown int64
	for _, ti := range tables {
		grown -= store.Pages(ti.ID)
	}
	first := r.ds.OrderKeyHorizon()
	o := r.ds.NewOLTP(3)
	for i := 0; i < 15; i++ {
		if err := o.RunTxn(r.tm, r.sess, 200); err != nil {
			t.Fatal(err)
		}
		if err := r.tm.Checkpoint(r.sess); err != nil {
			t.Fatal(err)
		}
	}
	var rowBytes int64
	for _, ti := range tables {
		pages := store.Pages(ti.ID)
		grown += pages
		sc := heap.NewFile(ti.ID, ti.Schema, policy.Table).NewScanner(&r.sess.Clk, r.inst.Pool, pages)
		for {
			row, _, ok, err := sc.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if row[0].I < first { // o_orderkey, l_orderkey
				continue
			}
			enc, err := catalog.EncodeTuple(nil, ti.Schema, row)
			if err != nil {
				t.Fatal(err)
			}
			rowBytes += 2 + int64(len(enc)) // slot header + tuple
		}
	}
	limit := float64(rowBytes)/pagestore.PageSize + 2
	t.Logf("%d NewOrders inserted %d row bytes; orders+lineitem grew %d pages (limit %.2f)", o.NewOrders, rowBytes, grown, limit)
	if o.NewOrders < 1000 || float64(grown) > limit {
		t.Fatalf("%d NewOrders grew orders+lineitem by %d pages, limit %.2f", o.NewOrders, grown, limit)
	}
}

// TestOLTPWriteBufferBenefit verifies the Rule 4 rationale: with a write
// buffer, the OLTP mix completes faster than with updates forced straight
// to the HDD (b = 0).
func TestOLTPWriteBufferBenefit(t *testing.T) {
	run := func(frac float64) int64 {
		ds := loadSmall(t)
		space := dss.DefaultPolicySpace()
		space.WriteBufferFrac = frac
		inst, err := ds.DB.NewInstance(instCfg(hybrid.Config{
			Mode:        hybrid.HStorage,
			CacheBlocks: 1024,
			Policy:      space,
		}))
		if err != nil {
			t.Fatal(err)
		}
		sess := inst.NewSession()
		driver := ds.NewOLTP(7)
		if err := driver.Run(sess, 300); err != nil {
			t.Fatal(err)
		}
		inst.Mgr.Wait(&sess.Clk)
		return int64(sess.Clk.Now())
	}
	with := run(0.20)
	without := run(0.0)
	if with >= without {
		t.Fatalf("write buffer did not help: b=20%% took %d, b=0 took %d", with, without)
	}
}

// TestOLTPPriorityCacheKeepsUpWithLRU holds the paper's claim on a
// transactional workload: on the same 4,000 operations of the mix, over a
// cache of 70 % and a pool of 4 % of the data, the priority cache serves
// the mix's random reads about as often as LRU does and finishes no later
// than 1.1x LRU's simulated time. While a write-buffer flush still demoted
// what it flushed to the lowest caching priority, the pages the mix had
// just written were evicted first: 0.84 against 0.99, and 11.0 s against
// 3.9 s.
func TestOLTPPriorityCacheKeepsUpWithLRU(t *testing.T) {
	if testing.Short() {
		t.Skip("two SF 0.01 loads and 9,000 transactions")
	}
	run := func(mode hybrid.Mode) (hit float64, elapsed time.Duration) {
		ds, err := Load(0.01)
		if err != nil {
			t.Fatal(err)
		}
		data := float64(ds.DB.Store.TotalPages())
		inst, err := ds.DB.NewInstance(engine.InstanceConfig{
			Storage:         hybrid.Config{Mode: mode, CacheBlocks: int(0.7 * data)},
			BufferPoolPages: int(0.04 * data),
			WorkMem:         500,
		})
		if err != nil {
			t.Fatal(err)
		}
		sess := inst.NewSession()
		driver := ds.NewOLTP(7)
		if err := driver.Run(sess, 500); err != nil { // warm-up
			t.Fatal(err)
		}
		inst.Mgr.Wait(&sess.Clk)
		inst.ResetStats()
		start := sess.Clk.Now()
		if err := driver.Run(sess, 4000); err != nil {
			t.Fatal(err)
		}
		inst.Mgr.Wait(&sess.Clk)
		// The mix's index and heap lookups run at plan level 0: Rule 2
		// gives them class RandLow under both modes (LRU ignores it).
		cs := inst.Sys.Stats().Class(dss.Class(dss.DefaultPolicySpace().RandLow))
		if cs.ReadBlocks == 0 {
			t.Fatalf("%v: the mix read nothing at class 2", mode)
		}
		return float64(cs.ReadHits) / float64(cs.ReadBlocks), sess.Clk.Now() - start
	}
	lruHit, lruTime := run(hybrid.LRU)
	hit, elapsed := run(hybrid.HStorage)
	t.Logf("class-2 read hit ratio %.3f (LRU %.3f), simulated %v (LRU %v)", hit, lruHit, elapsed, lruTime)
	if hit < lruHit-0.02 {
		t.Errorf("class-2 reads hit %.3f under hStorage-DB, %.3f under LRU", hit, lruHit)
	}
	if float64(elapsed) > 1.1*float64(lruTime) {
		t.Errorf("hStorage-DB took %v of simulated time, LRU %v", elapsed, lruTime)
	}
}
