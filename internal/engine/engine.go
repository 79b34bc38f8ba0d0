// Package engine assembles the DBMS prototype: a persistent Database
// (catalog + page store, playing the role of the on-disk database files)
// and disposable Instances (buffer pool + classification-enabled storage
// manager + a hybrid storage system in one of the four evaluation modes).
// The same loaded Database can be attached to a fresh Instance per
// experiment run, exactly like re-running a query against a different
// storage configuration in the paper.
package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hstoragedb/internal/dss"
	"hstoragedb/internal/engine/btree"
	"hstoragedb/internal/engine/bufferpool"
	"hstoragedb/internal/engine/catalog"
	"hstoragedb/internal/engine/exec"
	"hstoragedb/internal/engine/heap"
	"hstoragedb/internal/engine/policy"
	"hstoragedb/internal/engine/storagemgr"
	"hstoragedb/internal/hybrid"
	"hstoragedb/internal/obs"
	"hstoragedb/internal/pagestore"
	"hstoragedb/internal/simclock"
)

// Database is the persistent half: schemas plus page contents, held by
// a pluggable storage backend (the extent heap store by default, or an
// LSM tree). It knows nothing about devices or caches.
type Database struct {
	Cat   *catalog.Catalog
	Store pagestore.Backend
}

// InstanceConfig configures one attached engine instance.
type InstanceConfig struct {
	// Storage selects and sizes the storage system under test.
	Storage hybrid.Config
	// BufferPoolPages is the DBMS buffer pool size in pages.
	BufferPoolPages int
	// WorkMem is the per-blocking-operator memory budget in tuples.
	WorkMem int
	// CPUPerTuple is the simulated per-tuple processing cost.
	CPUPerTuple time.Duration
	// Ablation withholds one piece of classification from the storage
	// system (an experiment arm); the zero value withholds nothing.
	Ablation policy.Ablation
	// Obs optionally attaches an observability set (metrics registry +
	// tracer). It is forwarded to the storage system (scheduler and
	// devices) and the buffer pool; engine-side layers built later (lock
	// manager, WAL, transactions) attach through txn.Manager.Use.
	Obs *obs.Set
}

// DefaultInstanceConfig returns a laptop-scale configuration: hStorage
// mode, a small buffer pool, and spill-prone work memory.
func DefaultInstanceConfig() InstanceConfig {
	return InstanceConfig{
		Storage:         hybrid.Config{Mode: hybrid.HStorage, CacheBlocks: 4096},
		BufferPoolPages: 512,
		WorkMem:         4096,
		CPUPerTuple:     300 * time.Nanosecond,
	}
}

// Instance is a running engine over a Database: one storage system, one
// buffer pool, one policy table.
type Instance struct {
	DB   *Database
	Sys  hybrid.System
	Mgr  *storagemgr.Manager
	Pool *bufferpool.Pool
	Obs  *obs.Set
	cfg  InstanceConfig

	nextSID atomic.Int64
}

// NewDatabase creates an empty database over the extent heap backend.
func NewDatabase() *Database {
	return NewDatabaseOn(pagestore.NewStore())
}

// NewDatabaseOn creates an empty database over an explicit storage
// backend (e.g. an lsm.Store).
func NewDatabaseOn(b pagestore.Backend) *Database {
	return &Database{Cat: catalog.New(), Store: b}
}

// NewInstance attaches an engine instance to the database.
func (db *Database) NewInstance(cfg InstanceConfig) (*Instance, error) {
	if cfg.BufferPoolPages <= 0 {
		cfg.BufferPoolPages = 512
	}
	if cfg.WorkMem <= 0 {
		cfg.WorkMem = 4096
	}
	cfg.Storage.Obs = cfg.Obs
	sys, err := hybrid.New(cfg.Storage)
	if err != nil {
		return nil, err
	}
	space := cfg.Storage.Policy
	if space.N == 0 {
		space = dss.DefaultPolicySpace()
	}
	table := policy.NewAssignmentTable(space)
	table.Ablation = cfg.Ablation
	mgr := storagemgr.New(db.Store, sys, table)
	pool := bufferpool.New(mgr, cfg.BufferPoolPages)
	pool.Use(cfg.Obs)
	return &Instance{DB: db, Sys: sys, Mgr: mgr, Pool: pool, Obs: cfg.Obs, cfg: cfg}, nil
}

// Config returns the instance configuration.
func (inst *Instance) Config() InstanceConfig { return inst.cfg }

// Session is one query stream: a logical clock plus an execution context
// factory. Concurrent sessions share the instance (and therefore queue on
// its devices) but advance independent clocks.
type Session struct {
	inst *Instance
	Clk  simclock.Clock
}

// NewSession starts a stream at virtual time zero. Sessions are
// numbered in creation order; the number becomes the session clock's ID,
// which traces use as the track a request's spans land on.
func (inst *Instance) NewSession() *Session {
	s := &Session{inst: inst}
	s.Clk.SetID(inst.nextSID.Add(1))
	return s
}

// BindTenant attributes every storage request this session issues —
// page reads, write-backs, WAL appends through its clock, TRIMs — to
// tenant t, enabling the storage layer's weighted fair sharing and
// per-tenant accounting. Sessions are single-tenant; call it once,
// right after NewSession.
func (s *Session) BindTenant(t dss.TenantID) {
	s.inst.Mgr.BindTenant(&s.Clk, t)
}

// Instance returns the engine instance this session runs on.
func (s *Session) Instance() *Instance { return s.inst }

// Pool returns the instance's buffer pool.
func (s *Session) Pool() *bufferpool.Pool { return s.inst.Pool }

// Ctx builds an execution context on this session's clock.
func (s *Session) Ctx() *exec.Ctx {
	return &exec.Ctx{
		Clk:         &s.Clk,
		Pool:        s.inst.Pool,
		Cat:         s.inst.DB.Cat,
		Mgr:         s.inst.Mgr,
		CPUPerTuple: s.inst.cfg.CPUPerTuple,
		WorkMem:     s.inst.cfg.WorkMem,
	}
}

// Result summarizes one query execution.
type Result struct {
	Rows    []catalog.Tuple
	Elapsed time.Duration
}

// Execute runs a plan to completion on this session: levels are assigned
// (Section 4.2.2), the query's random-access footprint is registered with
// the shared registry for Rule 5, the iterator tree is drained, and the
// footprint is withdrawn. Elapsed is simulated time.
func (s *Session) Execute(root exec.Operator) (Result, error) {
	exec.AssignLevels(root)
	info := exec.ExtractQueryInfo(root)
	reg := s.inst.Mgr.Registry()
	reg.Register(info)
	defer reg.Unregister(info)

	start := s.Clk.Now()
	ctx := s.Ctx()
	rows, err := exec.Run(ctx, root)
	if err != nil {
		return Result{}, err
	}
	return Result{Rows: rows, Elapsed: s.Clk.Now() - start}, nil
}

// ExecuteDiscard runs a plan but drops its output, returning the row
// count and elapsed simulated time.
func (s *Session) ExecuteDiscard(root exec.Operator) (int64, time.Duration, error) {
	exec.AssignLevels(root)
	info := exec.ExtractQueryInfo(root)
	reg := s.inst.Mgr.Registry()
	reg.Register(info)
	defer reg.Unregister(info)

	start := s.Clk.Now()
	ctx := s.Ctx()
	n, err := exec.Drain(ctx, root)
	if err != nil {
		return n, 0, err
	}
	return n, s.Clk.Now() - start, nil
}

// RunStreams runs every stream on its own goroutine, waits for all of
// them and returns the first error, in stream order. It is how every
// concurrent workload starts its streams.
func RunStreams(streams ...func() error) error {
	errs := make([]error, len(streams))
	var wg sync.WaitGroup
	wg.Add(len(streams))
	for i, stream := range streams {
		go func() {
			defer wg.Done()
			errs[i] = stream()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ---- schema & loading ----

// CreateTable registers a table and its backing heap object.
func (db *Database) CreateTable(name string, schema catalog.Schema) (*catalog.TableInfo, error) {
	info, err := db.Cat.AddTable(name, schema)
	if err != nil {
		return nil, err
	}
	if err := db.Store.Create(info.ID); err != nil {
		return nil, err
	}
	return info, nil
}

// Loader bulk-appends tuples into a table through an instance (normally a
// scratch HDD-only instance whose statistics are discarded after loading).
type Loader struct {
	inst *Instance
	sess *Session
	tbl  *catalog.TableInfo
	app  *heap.Appender
}

// NewLoader starts a bulk load into an existing (possibly non-empty)
// table.
func (inst *Instance) NewLoader(table string) (*Loader, error) {
	info, err := inst.DB.Cat.Table(table)
	if err != nil {
		return nil, err
	}
	sess := inst.NewSession()
	file := heap.NewFile(info.ID, info.Schema, policy.Table)
	app := file.NewAppender(&sess.Clk, inst.Pool, inst.DB.Store.Pages(info.ID))
	return &Loader{inst: inst, sess: sess, tbl: info, app: app}, nil
}

// Add appends one tuple and returns its RID.
func (l *Loader) Add(t catalog.Tuple) (catalog.RID, error) { return l.app.Append(t) }

// Close flushes the load and updates the catalog row count.
func (l *Loader) Close() error {
	if err := l.app.Close(); err != nil {
		return err
	}
	l.inst.DB.Cat.SetRows(l.tbl.Name, l.tbl.Rows+l.app.Rows())
	return l.inst.Pool.FlushAll(&l.sess.Clk)
}

// BuildIndex creates and bulk-builds an index over an Int64/Date column.
func (inst *Instance) BuildIndex(name, table, column string) (*catalog.IndexInfo, error) {
	info, err := inst.DB.Cat.Table(table)
	if err != nil {
		return nil, err
	}
	col := info.Schema.Col(column)
	if col < 0 {
		return nil, fmt.Errorf("engine: table %q has no column %q", table, column)
	}
	switch info.Schema.Cols[col].Type {
	case catalog.Int64, catalog.Date:
	default:
		return nil, fmt.Errorf("engine: index column %q must be int-like", column)
	}
	ix, err := inst.DB.Cat.AddIndex(name, table, col)
	if err != nil {
		return nil, err
	}
	if err := inst.DB.Store.Create(ix.ID); err != nil {
		return nil, err
	}

	sess := inst.NewSession()
	file := heap.NewFile(info.ID, info.Schema, policy.Table)
	sc := file.NewScanner(&sess.Clk, inst.Pool, inst.DB.Store.Pages(info.ID))
	key := make([]bool, len(info.Schema.Cols))
	key[col] = true
	sc.Decode(catalog.NewDecoder(info.Schema, key)) // only the key is kept
	var entries []btree.Entry
	for {
		t, rid, ok, err := sc.NextBorrowed()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		entries = append(entries, btree.Entry{Key: t[col].I, RID: rid})
	}
	if _, _, err := btree.Build(&sess.Clk, inst.Pool, ix.ID, entries); err != nil {
		return nil, err
	}
	return ix, inst.Pool.FlushAll(&sess.Clk)
}

// ResetStats clears every counter on the instance (storage system,
// devices, buffer pool, request-type table) without touching cache or
// buffer contents. Experiments call it between the warmup and the
// measured run.
func (inst *Instance) ResetStats() {
	inst.Sys.ResetStats()
	inst.Mgr.ResetTypeStats()
	inst.Pool.ResetStats()
	if d := inst.Sys.SSD(); d != nil {
		d.Reset()
	}
	if d := inst.Sys.HDD(); d != nil {
		d.Reset()
	}
}

// DropBufferPool empties the buffer pool without write-back (cold start).
func (inst *Instance) DropBufferPool() { inst.Pool.DropAll() }

// Crash simulates killing the instance: every volatile page (the buffer
// pool, including pinned uncommitted pages) is discarded without
// write-back, a store its pagestore.Cut killed revives, and a backend
// holding volatile state (an LSM memtable) drops it and reloads from its
// durable image. The durable medium survives; a fresh instance attached
// to the same Database plays the role of the restarted server and
// recovers from the WAL.
func (inst *Instance) Crash() {
	inst.Pool.DropAll()
	if v, ok := inst.DB.Store.(pagestore.Volatile); ok {
		// Backend recovery cannot fail upward from a crash simulation;
		// a corrupt durable image would surface on the next access.
		_ = v.Crash()
	}
}
