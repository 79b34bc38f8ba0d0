package tpch

import (
	"time"

	"hstoragedb/internal/dss"
	"hstoragedb/internal/engine"
	"hstoragedb/internal/engine/policy"
	"hstoragedb/internal/engine/txn"
	"hstoragedb/internal/pagestore"
)

// WorkersResult summarizes one multi-worker transactional OLTP run.
type WorkersResult struct {
	// Drivers are the per-worker OLTP drivers (their Committed lists,
	// per-kind counters and Retries), in worker order.
	Drivers []*OLTP
	// Txns counts the transactions that completed across all workers.
	Txns int64
	// Retries counts deadlock aborts that were retried across workers.
	Retries int64
	// Elapsed is the latest worker session clock: the virtual makespan
	// of the concurrent run.
	Elapsed time.Duration
}

// oltpFootprint builds the Rule 5 registry entry of one OLTP worker: a
// level-0 random-access footprint over the objects its point lookups and
// updates touch, exactly what a query stream registers when it starts.
// With it, the concurrency registry reflects the degree of concurrent
// mutating traffic, so Rule 5 classification operates on real
// contention rather than on read streams alone.
func oltpFootprint(ds *Dataset) policy.QueryInfo {
	objs := []pagestore.ObjectID{
		ds.DB.Cat.MustTable("orders").ID,
		ds.DB.Cat.MustTable("lineitem").ID,
		ds.DB.Cat.MustTable("customer").ID,
		ds.DB.Cat.MustIndex("idx_orders_orderkey").ID,
		ds.DB.Cat.MustIndex("idx_lineitem_orderkey").ID,
		ds.DB.Cat.MustIndex("idx_lineitem_partkey").ID,
		ds.DB.Cat.MustIndex("idx_customer_custkey").ID,
	}
	levels := make(map[pagestore.ObjectID][]int, len(objs))
	for _, obj := range objs {
		levels[obj] = []int{0}
	}
	return policy.QueryInfo{Levels: levels, LLow: 0, LHigh: 0, HasRandom: true}
}

// RunOLTPWorkers runs `workers` concurrent mutating OLTP streams against
// one transaction manager: each worker gets its own session (clock,
// started at startAt so a measured phase can continue a warmed system's
// virtual time), its own driver (seeded seed+worker), and registers a
// random-access footprint with the Rule 5 concurrency registry for the
// duration of its run. Workers retry deadlock losses transparently; the
// first non-retryable error stops the run. The workers' device traffic
// is dispatched opportunistically: they are not enrolled in a closed
// scheduler population because the committed BENCH files of the
// experiments built on them were produced that way (a worker blocked on
// a page lock would park, not stall the barrier). The optional trailing
// tenants attribute each worker's traffic to a tenant (worker i gets
// tenants[i]; extra workers stay on dss.DefaultTenant), which is how the
// tenants experiment measures per-tenant commit throughput under
// weighted fair sharing.
func (ds *Dataset) RunOLTPWorkers(tm *txn.Manager, inst *engine.Instance, workers, txnsPerWorker int, seed int64, startAt time.Duration, tenants ...dss.TenantID) (WorkersResult, error) {
	if workers < 1 {
		workers = 1
	}
	res := WorkersResult{Drivers: make([]*OLTP, workers)}
	sessions := make([]*engine.Session, workers)
	streams := make([]func() error, workers)
	reg := inst.Mgr.Registry()
	for i := range res.Drivers {
		res.Drivers[i] = ds.NewOLTP(seed + int64(i))
		sessions[i] = inst.NewSession()
		sessions[i].Clk.AdvanceTo(startAt)
		if i < len(tenants) {
			sessions[i].BindTenant(tenants[i])
		}
		streams[i] = func() error {
			info := oltpFootprint(ds)
			reg.Register(info)
			defer reg.Unregister(info)
			return res.Drivers[i].RunTxn(tm, sessions[i], txnsPerWorker)
		}
	}
	if err := engine.RunStreams(streams...); err != nil {
		return res, err
	}
	for i, d := range res.Drivers {
		res.Txns += d.NewOrders + d.Payments + d.OrderStatuses
		res.Retries += d.Retries
		if t := sessions[i].Clk.Now() - startAt; t > res.Elapsed {
			res.Elapsed = t
		}
	}
	return res, nil
}
