// Package shard scales the engine out horizontally: a cluster of N
// self-contained engine instances (shards), each owning its own buffer
// pool, lock manager, WAL, I/O scheduler and hybrid cache stack over its
// own simulated device pair, a router that binds sessions to shards by
// hash partitioning, and a two-phase-commit coordinator for transactions
// that span shards.
//
// The design follows the LSST multi-petabyte deployment sketch the paper
// cites as its target scale: partition data across nodes that each run
// the full QoS storage stack, keep classification and fault handling
// per-partition, and coordinate only at the transaction boundary. One
// shard is one node — nothing is shared between shards except the
// coordinator's decision log, which is co-located on shard 0 (the way a
// real deployment co-locates the coordinator with one participant).
//
// Two-phase commit reuses the engine's existing durability machinery
// rather than adding any:
//
//   - Phase 1 (prepare): each participant appends its page records and a
//     prepare record carrying the global transaction ID, forced through
//     the same pinned-log-class group-commit path ordinary commits ride.
//     Locks and pins stay held (txn.Txn.Prepare).
//   - Decision: the coordinator appends a decide record to its decision
//     log and forces it. The decision record is the commit point.
//   - Phase 2: each participant appends its local commit record
//     (txn.Txn.CommitPrepared) or aborts. Presumed abort: phase-2 abort
//     records are not forced, and a missing decision means abort.
//
// Recovery is per-shard: each shard's WAL recovers independently and
// holds prepared-but-undecided transactions in doubt; the cluster then
// resolves every in-doubt transaction against the recovered decision
// log — commit if a durable decide-commit record exists for its GTID,
// abort otherwise.
//
// Each shard's lock manager detects deadlocks only within its own wait
// graph, and nothing detects a cycle that spans shards: cross-shard
// cycles go undetected today (ROADMAP.md, item 1). Touching keys in
// ascending order (Accounts.Transfer does) does not exclude them,
// because locks are on pages, and ascending keys do not give ascending
// heap or index-leaf pages on each shard. Such a cycle is why
// TestConcurrentTransfersConserveTotal can hang.
package shard

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hstoragedb/internal/engine"
	"hstoragedb/internal/engine/policy"
	"hstoragedb/internal/engine/txn"
	"hstoragedb/internal/engine/wal"
	"hstoragedb/internal/hybrid"
	"hstoragedb/internal/obs"
	"hstoragedb/internal/pagestore"
	"hstoragedb/internal/simclock"
)

// CoordBaseObject is the reserved object range of the coordinator's
// decision log on shard 0's page store.
const CoordBaseObject = pagestore.CoordLogBase

// Config sizes one cluster. Every shard gets an identical stack: scaling
// out adds whole nodes, it does not split one node's resources.
type Config struct {
	// Shards is the number of engine instances (>= 1).
	Shards int
	// Storage sizes each shard's storage system (mode, cache, devices).
	Storage hybrid.Config
	// BufferPoolPages and WorkMem size each shard's instance.
	BufferPoolPages int
	WorkMem         int
	// CPUPerTuple is the per-tuple processing cost of each shard.
	CPUPerTuple time.Duration
	// WAL configures each shard's log (and, with the coordinator's base
	// object substituted, the decision log).
	WAL wal.Config
	// Obs optionally attaches an observability set. Each shard receives
	// a derived view stamping a `shard` label on every metric, so one
	// registry carries per-shard wal/iosched/cache series side by side;
	// the coordinator's 2PC spans record under the base set.
	Obs *obs.Set
	// Backend, when non-nil, builds each shard's storage backend (one
	// call per shard). Nil selects the extent heap store.
	Backend func() pagestore.Backend
	// Ablation withholds one piece of classification from every
	// shard's storage system (the lsm experiment's
	// policy.NoCompactionClass arm); the zero value withholds nothing.
	Ablation policy.Ablation
}

// Shard is one node of the cluster: a database, a running instance, its
// WAL, and its transaction manager.
type Shard struct {
	ID   int
	DB   *engine.Database
	Inst *engine.Instance
	Log  *wal.Manager
	TM   *txn.Manager
}

// Cluster is a running set of shards plus the router state and the 2PC
// coordinator. All methods are safe for concurrent use.
type Cluster struct {
	cfg    Config
	shards []*Shard
	coord  *Coordinator

	// gate is the cluster-level drain barrier: every routed transaction
	// holds the read side from Begin to finish, Checkpoint takes the
	// write side. Per-shard checkpoints therefore always run with no
	// routed transaction in flight — taking the per-shard barriers
	// concurrently with cross-shard Begins could deadlock (txn on A
	// waits for Begin on B behind B's checkpoint, which waits for a txn
	// waiting on A's checkpoint).
	gate sync.RWMutex

	dead    atomic.Bool
	nextSID atomic.Int64
}

// shardObs derives the per-shard observability view.
func shardObs(base *obs.Set, id int) *obs.Set {
	return base.With(obs.LInt("shard", int64(id)))
}

func (cfg Config) withDefaults() Config {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.WAL.SegmentPages == 0 && cfg.WAL.GroupCommitWindow == 0 && cfg.WAL.BaseObject == 0 {
		cfg.WAL = wal.DefaultConfig()
	}
	return cfg
}

// coordWALConfig is the decision log's config: same segment sizing as
// the data logs, relocated to the reserved coordinator object range.
func (cfg Config) coordWALConfig() wal.Config {
	w := cfg.WAL
	w.BaseObject = CoordBaseObject
	return w
}

// New builds a fresh cluster: Shards empty databases, one instance each,
// a WAL per shard, and the coordinator's decision log on shard 0.
func New(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	c := &Cluster{cfg: cfg}
	for i := 0; i < cfg.Shards; i++ {
		var db *engine.Database
		if cfg.Backend != nil {
			db = engine.NewDatabaseOn(cfg.Backend())
		} else {
			db = engine.NewDatabase()
		}
		s, err := newShardOver(cfg, i, db, false)
		if err != nil {
			return nil, err
		}
		c.shards = append(c.shards, s)
	}
	sess := c.shards[0].Inst.NewSession()
	coordLog, err := wal.New(&sess.Clk, c.shards[0].Inst.Mgr, cfg.coordWALConfig())
	if err != nil {
		return nil, fmt.Errorf("shard: coordinator log: %w", err)
	}
	// The decision log reports under its own pseudo-shard label, so 2PC
	// decision forces are separable from shard 0's data-log traffic.
	coordLog.Use(cfg.Obs.With(obs.L("shard", "coord")))
	c.coord = newCoordinator(coordLog, cfg.Obs)
	return c, nil
}

// newShardOver attaches a shard instance (and, unless recovering, a
// fresh WAL) to an existing database.
func newShardOver(cfg Config, id int, db *engine.Database, recover bool) (*Shard, error) {
	inst, err := db.NewInstance(engine.InstanceConfig{
		Storage:         cfg.Storage,
		BufferPoolPages: cfg.BufferPoolPages,
		WorkMem:         cfg.WorkMem,
		CPUPerTuple:     cfg.CPUPerTuple,
		Ablation:        cfg.Ablation,
		Obs:             shardObs(cfg.Obs, id),
	})
	if err != nil {
		return nil, fmt.Errorf("shard %d: %w", id, err)
	}
	s := &Shard{ID: id, DB: db, Inst: inst}
	if !recover {
		sess := inst.NewSession()
		s.Log, err = wal.New(&sess.Clk, inst.Mgr, cfg.WAL)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", id, err)
		}
		s.TM = txn.NewManager(inst, s.Log)
		if err := s.TM.Checkpoint(sess); err != nil {
			return nil, fmt.Errorf("shard %d: %w", id, err)
		}
	}
	return s, nil
}

// Shards returns the shard count.
func (c *Cluster) Shards() int { return len(c.shards) }

// Shard returns shard i.
func (c *Cluster) Shard(i int) *Shard { return c.shards[i] }

// Coordinator returns the 2PC coordinator.
func (c *Cluster) Coordinator() *Coordinator { return c.coord }

// Config returns the cluster configuration (with defaults applied).
func (c *Cluster) Config() Config { return c.cfg }

// ShardFor hash-partitions a key: a 64-bit finalization mix (the
// splitmix64 finalizer) spreads adjacent keys uniformly, then the mix
// reduces mod the shard count. Deterministic across runs and processes.
func (c *Cluster) ShardFor(key int64) int {
	return int(mix64(uint64(key)) % uint64(len(c.shards)))
}

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Checkpoint drains every routed transaction (cluster gate), then
// checkpoints each shard in turn: committed work flushes, logs truncate,
// version stores prune. With nothing left in doubt, the decision log
// truncates too. The caller's router session provides the clocks.
func (c *Cluster) Checkpoint(rs *Session) error {
	c.gate.Lock()
	defer c.gate.Unlock()
	if c.dead.Load() {
		return txn.ErrCrashed
	}
	for i, s := range c.shards {
		if err := s.TM.Checkpoint(rs.sess[i]); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	if err := c.coord.truncate(&rs.sess[0].Clk, c.shards[0].Inst.Pool); err != nil {
		return fmt.Errorf("shard: coordinator log: %w", err)
	}
	return nil
}

// Crash kills the whole cluster: every shard's volatile state drops
// (pinned pages, buffer pools) and the coordinator stops deciding. The
// page stores — including every shard's log segments and the decision
// log — survive for Recover.
func (c *Cluster) Crash() {
	c.dead.Store(true)
	for _, s := range c.shards {
		s.TM.Crash()
	}
}

// Dead reports whether Crash has been called.
func (c *Cluster) Dead() bool { return c.dead.Load() }

// Databases returns each shard's database — the durable halves a
// recovery attaches fresh instances to.
func (c *Cluster) Databases() []*engine.Database {
	dbs := make([]*engine.Database, len(c.shards))
	for i, s := range c.shards {
		dbs[i] = s.DB
	}
	return dbs
}

// RecoveryStats aggregates a cluster recovery.
type RecoveryStats struct {
	// PerShard holds each shard's WAL recovery outcome, indexed by shard.
	PerShard []wal.RecoveryStats
	// InDoubt counts prepared-but-undecided transactions recovery found;
	// ResolvedCommit/ResolvedAbort how the decision log settled them
	// (missing decision = presumed abort).
	InDoubt        int
	ResolvedCommit int
	ResolvedAbort  int
}

// Recover restarts a crashed cluster over its surviving databases: each
// shard's WAL recovers independently (redoing committed work, holding
// prepared-but-undecided transactions in doubt), the coordinator's
// decision log recovers on shard 0, and every in-doubt transaction is
// resolved against it — redo-and-commit when a durable decide-commit
// record names its GTID, abort otherwise (presumed abort).
func Recover(cfg Config, dbs []*engine.Database) (*Cluster, *RecoveryStats, error) {
	cfg = cfg.withDefaults()
	if len(dbs) != cfg.Shards {
		return nil, nil, fmt.Errorf("shard: recover: %d databases for %d shards", len(dbs), cfg.Shards)
	}
	c := &Cluster{cfg: cfg}
	stats := &RecoveryStats{PerShard: make([]wal.RecoveryStats, cfg.Shards)}
	for i := 0; i < cfg.Shards; i++ {
		s, err := newShardOver(cfg, i, dbs[i], true)
		if err != nil {
			return nil, nil, err
		}
		sess := s.Inst.NewSession()
		log, rs, err := wal.Recover(&sess.Clk, s.Inst.Mgr, cfg.WAL)
		if err != nil {
			return nil, nil, fmt.Errorf("shard %d: %w", i, err)
		}
		s.Log = log
		s.TM = txn.NewManager(s.Inst, log)
		stats.PerShard[i] = *rs
		c.shards = append(c.shards, s)
	}

	// The decision log recovers like any WAL; its "committed
	// transactions" are the decide records themselves (no page records to
	// redo). Its recovered decision map is the oracle for every shard's
	// in-doubt set.
	coordSess := c.shards[0].Inst.NewSession()
	coordLog, _, err := wal.Recover(&coordSess.Clk, c.shards[0].Inst.Mgr, cfg.coordWALConfig())
	if err != nil {
		return nil, nil, fmt.Errorf("shard: coordinator log: %w", err)
	}
	coordLog.Use(cfg.Obs.With(obs.L("shard", "coord")))
	decisions := coordLog.Decisions()
	c.coord = newCoordinator(coordLog, cfg.Obs)
	c.coord.resumeAfter(decisions)

	for i, s := range c.shards {
		sess := s.Inst.NewSession()
		for _, d := range s.Log.InDoubt() {
			stats.InDoubt++
			commit := decisions[d.GTID]
			if err := s.Log.ResolveInDoubt(&sess.Clk, d.Txn, commit); err != nil {
				return nil, nil, fmt.Errorf("shard %d: resolve txn %d: %w", i, d.Txn, err)
			}
			if commit {
				stats.ResolvedCommit++
			} else {
				stats.ResolvedAbort++
			}
		}
		// Resolution appended outcome records; fold the shard's pool
		// state forward so the recovered image is clean for new work.
		if err := s.Inst.Pool.FlushAll(&sess.Clk); err != nil {
			return nil, nil, fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return c, stats, nil
}

// Wait drains every shard's storage system on the router session's
// per-shard clocks and levels them to the cluster-wide maximum: the
// virtual makespan of everything submitted so far.
func (c *Cluster) Wait(rs *Session) simclock.Duration {
	var max simclock.Duration
	for i, s := range c.shards {
		s.Inst.Mgr.Wait(&rs.sess[i].Clk)
		if t := rs.sess[i].Clk.Now(); t > max {
			max = t
		}
	}
	for i := range c.shards {
		rs.sess[i].Clk.AdvanceTo(max)
	}
	return max
}
