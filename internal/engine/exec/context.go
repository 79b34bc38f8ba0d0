// Package exec implements the query execution engine: an iterator-model
// operator tree annotated with the plan-level information hStorage-DB
// extracts from the optimizer (Section 4.2), plus the temporary-file
// machinery whose lifetime drives Rule 3.
package exec

import (
	"time"

	"hstoragedb/internal/engine/bufferpool"
	"hstoragedb/internal/engine/catalog"
	"hstoragedb/internal/engine/storagemgr"
	"hstoragedb/internal/pagestore"
	"hstoragedb/internal/simclock"
)

// Ctx carries everything an operator needs at runtime. One Ctx serves one
// query execution on one stream clock.
type Ctx struct {
	Clk  *simclock.Clock
	Pool *bufferpool.Pool
	Cat  *catalog.Catalog
	Mgr  *storagemgr.Manager

	// CPUPerTuple is the simulated processing cost charged for every
	// tuple an operator handles. It keeps CPU-bound queries (Q1) from
	// looking purely I/O-bound.
	CPUPerTuple time.Duration

	// WorkMem is the number of tuples a blocking operator may hold in
	// memory before spilling to temporary files.
	WorkMem int

	// Tuples counts tuple-processing steps, for CPU accounting checks.
	Tuples int64

	// temps tracks the temporary files created during this query so
	// stray ones can be reclaimed at Close.
	temps []*TempFile
}

// ChargeTuples advances the stream clock by n tuple-processing costs.
func (c *Ctx) ChargeTuples(n int) {
	if n <= 0 {
		return
	}
	c.Tuples += int64(n)
	if c.CPUPerTuple > 0 {
		c.Clk.Advance(time.Duration(n) * c.CPUPerTuple)
	}
}

// Operator is a pull-based executor node. The contract is
// Open → Next* → Close; Close must be idempotent.
type Operator interface {
	// Children returns the operator's inputs in execution order (for a
	// hash join: build first, probe second).
	Children() []Operator
	// Blocking reports whether this operator must consume its entire
	// input before producing output (hash build, sort) — Section 4.2.2's
	// blocking operators that trigger level recalculation.
	Blocking() bool
	// Access describes the storage object this operator reads directly,
	// if any (leaf operators only).
	Access() (AccessInfo, bool)
	// SetLevel installs the plan level computed by AssignLevels.
	SetLevel(level int)
	// Level returns the operator's (possibly recalculated) plan level.
	Level() int

	Open(ctx *Ctx) error
	// Next returns the next row. The returned tuple is borrowed: it is
	// valid until the next call of Next on the same operator (its Datum
	// slab is the operator's scratch, its strings alias a page frame).
	// Whoever keeps a row takes Tuple.Owned. The keepers are HashJoin's
	// build table, Sort, TopN, HashAgg's accumulators and Run.
	Next(ctx *Ctx) (catalog.Tuple, bool, error)
	Close(ctx *Ctx) error
}

// AccessInfo describes a leaf operator's storage footprint: which objects
// it touches and whether the accesses are sequential or random.
type AccessInfo struct {
	// Objects lists the touched object IDs (an index scan lists both the
	// index and its table).
	Objects []pagestore.ObjectID
	// Random reports whether the accesses are random (index scan) or
	// sequential (heap scan).
	Random bool
}

// base provides the Level bookkeeping shared by all operators.
type base struct {
	level int
}

func (b *base) SetLevel(l int) { b.level = l }
func (b *base) Level() int     { return b.level }

// Run drains an operator tree and returns all produced tuples, each an
// owned copy. Close is always called, even on error.
func Run(ctx *Ctx, op Operator) ([]catalog.Tuple, error) {
	var out []catalog.Tuple
	_, err := drain(ctx, op, func(t catalog.Tuple) { out = append(out, t.Owned()) })
	return out, err
}

// Drain consumes an operator tree, discarding output but counting rows.
func Drain(ctx *Ctx, op Operator) (int64, error) { return drain(ctx, op, nil) }

// drain pulls op dry, handing each (borrowed) row to keep if there is one.
func drain(ctx *Ctx, op Operator, keep func(catalog.Tuple)) (int64, error) {
	if err := op.Open(ctx); err != nil {
		_ = op.Close(ctx)
		return 0, err
	}
	var n int64
	for {
		t, ok, err := op.Next(ctx)
		if err != nil {
			_ = op.Close(ctx)
			return n, err
		}
		if !ok {
			break
		}
		if keep != nil {
			keep(t)
		}
		n++
	}
	err := op.Close(ctx)
	ctx.ReclaimTemps()
	return n, err
}
