// Package hstoragedb is a reproduction of "hStorage-DB:
// Heterogeneity-aware Data Management to Exploit the Full Capability of
// Hybrid Storage Systems" (Luo, Lee, Mesnier, Chen, Zhang — PVLDB 5(10),
// 2012) as a self-contained Go library.
//
// The package bundles, end to end, everything the paper's evaluation
// needs:
//
//   - a simulated hybrid storage system: an SSD cache over an HDD managed
//     by the paper's priority-based selective allocation / selective
//     eviction (plus LRU, HDD-only and SSD-only configurations),
//   - the Differentiated Storage Services request classification layer,
//   - a small DBMS engine (buffer pool, heap files, B+trees, an iterator
//     executor with plan-level tracking) whose storage manager assigns
//     each I/O request a QoS policy per the paper's Rules 1-5,
//   - a deterministic scaled-down TPC-H workload: generator, the nine
//     indexes of Table 3, all 22 queries, RF1/RF2, power and throughput
//     test drivers,
//   - the OLTP extension of Section 8: a write-ahead log whose segment
//     I/O carries a pinned highest-priority log class (kept on the SSD,
//     non-evictable), Begin/Commit/Abort transaction sessions with group
//     commit, checkpoints, crash injection and redo-only recovery,
//   - experiment drivers that regenerate every figure and table of
//     Section 6, plus the transactional OLTP experiment (commit
//     throughput and recovery time across all four configurations).
//
// # Quick start
//
//	ds, err := hstoragedb.LoadTPCH(0.01)           // generate + load + index
//	inst, err := ds.DB.NewInstance(hstoragedb.InstanceConfig{
//	    Storage: hstoragedb.StorageConfig{Mode: hstoragedb.HStorage, CacheBlocks: 4096},
//	})
//	sess := inst.NewSession()
//	res, err := sess.Execute(ds.MustQuery(9, 0))    // run TPC-H Q9
//	fmt.Println(res.Elapsed, inst.Sys.Stats())
//
// Execution time is simulated (discrete-event device models parameterized
// with the paper's Table 2); the library is deterministic end to end.
package hstoragedb

import (
	"hstoragedb/internal/device"
	"hstoragedb/internal/dss"
	"hstoragedb/internal/engine"
	"hstoragedb/internal/engine/catalog"
	"hstoragedb/internal/engine/exec"
	"hstoragedb/internal/engine/policy"
	"hstoragedb/internal/engine/txn"
	"hstoragedb/internal/engine/wal"
	"hstoragedb/internal/experiments"
	"hstoragedb/internal/hybrid"
	"hstoragedb/internal/iosched"
	"hstoragedb/internal/simclock"
	"hstoragedb/internal/tpch"
)

// Storage configuration: the four configurations of the evaluation and
// the {N, t, b} QoS policy space.
type (
	// Mode selects HDD-only, LRU, hStorage-DB, SSD-only or the ARC
	// extension baseline.
	Mode = hybrid.Mode
	// StorageConfig sizes and parameterizes a storage system.
	StorageConfig = hybrid.Config
	// PolicySpace is the {N, t, b} tuple plus the random priority range.
	PolicySpace = dss.PolicySpace
	// Class is a caching priority attached to a request.
	Class = dss.Class
	// Snapshot is a storage system's counter snapshot (cache hits per
	// priority, evictions, TRIMs, ...).
	Snapshot = hybrid.Snapshot
	// DeviceSpec parameterizes a simulated device.
	DeviceSpec = device.Spec
	// IOSchedConfig parameterizes the QoS-aware per-device I/O
	// scheduler (StorageConfig.Sched): priority dispatch with an aging
	// bound, coalescing, readahead; set FIFO for the queued
	// arrival-order ablation.
	IOSchedConfig = iosched.Config
	// IOSchedGroup is a storage system's scheduling domain: experiment
	// streams register their session clocks with it for
	// closed-population priority dispatch (System.Sched()).
	IOSchedGroup = iosched.Group
	// LatencyHist is a per-class end-to-end device latency histogram
	// (DeviceStats.PerClass).
	LatencyHist = device.LatencyHist
	// DeviceStats are one device's cumulative counters, including the
	// per-class latency histograms recorded by the I/O scheduler.
	DeviceStats = device.Stats
)

// The four storage configurations of Section 6.
const (
	HDDOnly  = hybrid.HDDOnly
	LRU      = hybrid.LRU
	HStorage = hybrid.HStorage
	SSDOnly  = hybrid.SSDOnly
	// ARC is an extension baseline: the adaptive replacement cache, a
	// stronger monitoring-based policy than the paper's LRU.
	ARC = hybrid.ARC
)

// Modes lists the four configurations in the paper's plotting order.
func Modes() []Mode { return hybrid.Modes() }

// DefaultPolicySpace returns the paper's policy configuration: N = 8,
// t = N-1, b = 10%, random priorities in [2, 6].
func DefaultPolicySpace() PolicySpace { return dss.DefaultPolicySpace() }

// Cheetah15K and Intel320 are the device models of Table 2.
func Cheetah15K() DeviceSpec { return device.Cheetah15K() }
func Intel320() DeviceSpec   { return device.Intel320() }

// Engine: databases, instances, sessions.
type (
	// Database is the persistent half: catalog plus page contents.
	Database = engine.Database
	// Instance is a running engine: buffer pool + classification-enabled
	// storage manager + one storage system.
	Instance = engine.Instance
	// InstanceConfig sizes an instance.
	InstanceConfig = engine.InstanceConfig
	// Session is one query stream on its own simulated clock.
	Session = engine.Session
	// Result is a query execution outcome.
	Result = engine.Result
)

// NewDatabase creates an empty database.
func NewDatabase() *Database { return engine.NewDatabase() }

// DefaultInstanceConfig returns a laptop-scale hStorage configuration.
func DefaultInstanceConfig() InstanceConfig { return engine.DefaultInstanceConfig() }

// Schema / tuple surface for building custom tables and plans.
type (
	Schema  = catalog.Schema
	Column  = catalog.Column
	ColType = catalog.ColType
	Tuple   = catalog.Tuple
	Datum   = catalog.Datum
)

// Column types.
const (
	Int64Col   = catalog.Int64
	Float64Col = catalog.Float64
	StringCol  = catalog.String
	DateCol    = catalog.Date
)

// Datum constructors.
var (
	Int    = catalog.IntDatum
	Float  = catalog.FloatDatum
	String = catalog.StringDatum
)

// NewSchema builds a schema from columns.
func NewSchema(cols ...Column) Schema { return catalog.NewSchema(cols...) }

// Executor operators, for building query plans against the public API.
// Plans are trees of operators; Session.Execute assigns plan levels
// (Section 4.2.2), registers the plan's random-access footprint for
// Rule 5, and drains the tree on the session clock. The rows Execute
// returns are owned by the caller. The rows an operator callback sees
// (Pred, OuterKey, Combine, GroupKey, Merge, Project.Fn, ...) are not:
// each is valid until the operator below produces its next row, so a
// callback that keeps one takes Tuple.Owned; Combine, Project.Fn and
// GroupKey append their result to the scratch they are handed.
type (
	Operator    = exec.Operator
	TableHandle = exec.TableHandle
	SeqScan     = exec.SeqScan
	IndexScan   = exec.IndexScan
	IndexProbe  = exec.IndexProbe
	NestLoop    = exec.NestLoop
	Hash        = exec.Hash
	HashJoin    = exec.HashJoin
	HashAgg     = exec.HashAgg
	Sort        = exec.Sort
	TopN        = exec.TopN
	Filter      = exec.Filter
	Project     = exec.Project
	Limit       = exec.Limit
	Values      = exec.Values
)

// NewTableHandle binds a catalog table for use in scans.
func NewTableHandle(info *catalog.TableInfo) *TableHandle { return exec.NewTableHandle(info) }

// Request classification surface (Figure 4's request types).
type (
	// RequestType is one of sequential / random / temporary / update /
	// log.
	RequestType = policy.RequestType
	// SemanticTag is the semantic information attached to a page request.
	SemanticTag = policy.Tag
)

// RequestTypes lists the classes Figure 4 plots, plus the log class of
// the OLTP extension.
func RequestTypes() []RequestType { return policy.RequestTypes() }

// ClassLog is the pinned highest-priority class carried by write-ahead
// log traffic (Section 8's OLTP extension): kept on the cache device and
// never evicted or written to the HDD, only TRIMmed at checkpoint
// truncation. Its durability assumes the cache device survives a crash.
const ClassLog = dss.ClassLog

// Transactions and durability: the OLTP extension of Section 8. A
// WALManager owns LSN-stamped segment files laid out on the simulated
// device and classified under ClassLog; a TxnManager wraps an instance
// with Begin/Commit/Abort sessions, group commit, checkpoints, crash
// injection and ARIES-style redo-only recovery.
type (
	// WALConfig sizes the write-ahead log (segment pages, group-commit
	// window, reserved object range).
	WALConfig = wal.Config
	// WALManager is the log manager.
	WALManager = wal.Manager
	// WALRecord is one LSN-stamped log record.
	WALRecord = wal.Record
	// RecoveryStats summarizes one crash recovery.
	RecoveryStats = wal.RecoveryStats
	// TxnManager coordinates transactions over one instance and one log.
	TxnManager = txn.Manager
	// Txn is one Begin/Commit/Abort transaction session.
	Txn = txn.Txn
)

// ErrCrashed is returned by transactions on a crash-injected manager.
var ErrCrashed = txn.ErrCrashed

// ErrDeadlock is returned from transactional page accesses when the lock
// manager refuses a request that would deadlock; the transaction should
// Abort and retry. Mutating transactions on distinct sessions run
// concurrently under page-granular two-phase locking.
var ErrDeadlock = txn.ErrDeadlock

// DefaultWALConfig returns the log sizing used by tests and experiments.
func DefaultWALConfig() WALConfig { return wal.DefaultConfig() }

// NewWAL creates a fresh write-ahead log for an instance. Use Recover if
// the database already holds one (e.g. after a crash).
func NewWAL(sess *Session, cfg WALConfig) (*WALManager, error) {
	return wal.New(&sess.Clk, sess.Instance().Mgr, cfg)
}

// Recover replays an existing WAL on a freshly attached instance: the
// committed transactions' effects are redone in LSN order, losers are
// discarded. It returns the recovered log manager ready for new appends.
func Recover(sess *Session, cfg WALConfig) (*WALManager, *RecoveryStats, error) {
	return wal.Recover(&sess.Clk, sess.Instance().Mgr, cfg)
}

// NewTxnManager wraps an instance and its log with transaction sessions.
func NewTxnManager(inst *Instance, log *WALManager) *TxnManager {
	return txn.NewManager(inst, log)
}

// Clock is the virtual clock each session advances.
type Clock = simclock.Clock

// TPC-H workload.
type (
	// Dataset is a loaded TPC-H database plus query builders and RF1/RF2.
	Dataset = tpch.Dataset
)

// LoadTPCH generates, loads and indexes a TPC-H database at the given
// scale factor (the paper uses 30 and 10; 0.01-0.1 are laptop-friendly).
func LoadTPCH(sf float64) (*Dataset, error) { return tpch.Load(sf) }

// PowerOrder returns the power-test query ordering (stream 0).
func PowerOrder() []int { return tpch.PowerOrder() }

// ThroughputOrders returns the first n throughput-stream permutations.
func ThroughputOrders(n int) [][]int { return tpch.ThroughputOrders(n) }

// Experiments: regenerate the paper's figures and tables.
type (
	ExperimentConfig = experiments.Config
	ExperimentEnv    = experiments.Env
)

// DefaultExperimentConfig returns the sizing used by the test suite.
func DefaultExperimentConfig() ExperimentConfig { return experiments.DefaultConfig() }

// NewExperimentEnv loads a dataset sized per the configuration.
func NewExperimentEnv(cfg ExperimentConfig) (*ExperimentEnv, error) {
	return experiments.NewEnv(cfg)
}
