package main

import (
	"errors"
	"math/rand"
	"time"

	"hstoragedb/internal/engine/txn"
	"hstoragedb/internal/engine/wal"
	"hstoragedb/internal/hybrid"
	"hstoragedb/internal/iosched"
	"hstoragedb/internal/lsm"
	"hstoragedb/internal/pagestore"
	"hstoragedb/internal/shard"
)

// bankCkptEvery is the cluster checkpoint cadence in ops. A checkpoint
// also syncs the backend, so LSM flushes ride it.
const bankCkptEvery = 150

const bankBalance = 1000

// bankEnv is a two-shard cluster on the LSM backend running a bank mix
// from one routed session: 80 % single-account deposits, 20 % transfers,
// about half of which cross shards and commit by two-phase commit.
type bankEnv struct {
	cfg      shard.Config
	c        *shard.Cluster
	a        *shard.Accounts
	rs       *shard.Session
	rng      *rand.Rand
	chunkOps int
	done     int   // ops since set-up, for the checkpoint cadence
	added    int64 // sum of committed deposits: what the total must have grown by
}

func bankChunkOps(s scale) int { return s.pick(1000, 40) }

func setupBank(p params) (env, error) {
	e := &bankEnv{rng: rand.New(rand.NewSource(51000 + p.seed)), chunkOps: bankChunkOps(p.scale)}
	e.cfg = shard.Config{
		Shards: 2,
		Storage: hybrid.Config{
			Mode:        p.mode,
			CacheBlocks: 1024,
			// A tight background budget keeps compaction sweeps from
			// crowding the device: the regime ClassCompaction is for.
			Sched: iosched.Config{BackgroundShare: 0.1},
		},
		BufferPoolPages: 256,
		WorkMem:         4096,
		CPUPerTuple:     cpuPerRow,
		WAL:             wal.Config{SegmentPages: 256, GroupCommitWindow: 50 * time.Microsecond},
		Obs:             p.obs,
		Backend: func() pagestore.Backend {
			return lsm.New(lsm.Config{MemtablePages: 64, L0Tables: 4})
		},
	}
	var err error
	if e.c, err = shard.New(e.cfg); err != nil {
		return nil, err
	}
	if e.a, err = e.c.LoadAccounts(int64(p.scale.pick(40000, 2000)), bankBalance, 800); err != nil {
		return nil, err
	}
	e.rs = e.c.NewSession()

	// Warm-up: one chunk puts tables on every level of both trees.
	e.chunk(-1, []*lane{{prog: &progress{}}})
	e.c.Wait(e.rs)
	if err := e.c.Checkpoint(e.rs); err != nil {
		return nil, err
	}
	for i := 0; i < e.c.Shards(); i++ {
		e.c.Shard(i).Inst.ResetStats()
	}
	return e, nil
}

func (e *bankEnv) lanes() int { return 1 }

func (e *bankEnv) now() time.Duration { return e.rs.Now() }

func (e *bankEnv) settle() time.Duration { return e.c.Wait(e.rs) }

func (e *bankEnv) counts() counts {
	c := e.c
	cl := newCollector()
	for i := 0; i < c.Shards(); i++ {
		cl.instance(c.Shard(i).Inst)
		cl.txns(c.Shard(i).TM)
	}
	tp := c.Coordinator().Stats()
	cl.add("twopc.commits", tp.Commits)
	cl.add("twopc.aborts", tp.Aborts)
	cl.add("twopc.prepares", tp.Prepares)
	return cl.done()
}

func (e *bankEnv) chunk(_ int, ls []*lane) {
	l := ls[0]
	l.track = e.rs.At(0).Clk.ID()
	for n := 0; n < e.chunkOps; n++ {
		e.op(l)
		if e.done++; e.done%bankCkptEvery == 0 {
			id := l.span("checkpoint", -1)
			if err := e.c.Checkpoint(e.rs); err != nil {
				l.op(0, 0, 0, err)
			}
			l.wall.end(id, "")
		}
	}
}

// op is one transaction: Begin, a deposit or a transfer, Commit.
func (e *bankEnv) op(l *lane) {
	// The client is a closed loop: it sends the next request when it has
	// the previous reply, so no shard's clock may lag the session's.
	e.rs.AdvanceTo(e.rs.Now())
	start := e.rs.Now()
	root := l.span("txn", -1)
	defer func() { l.wall.end(root, "") }()

	id := l.span("begin", root)
	t, err := e.rs.Begin()
	l.wall.end(id, "")
	if err != nil {
		l.op(start, e.rs.Now(), 0, err)
		return
	}
	var deposit int64
	if e.rng.Intn(100) < 80 {
		deposit = 1 + e.rng.Int63n(100)
		id = l.span("add", root)
		err = e.a.Add(t, e.rng.Int63n(e.a.N), deposit)
	} else {
		from := e.rng.Int63n(e.a.N)
		to := e.rng.Int63n(e.a.N - 1)
		if to >= from {
			to++
		}
		id = l.span("transfer", root)
		err = e.a.Transfer(t, from, to, 1+e.rng.Int63n(10))
	}
	l.wall.end(id, "")
	if err != nil {
		_ = t.Abort() // the op already failed; its error is the one reported
		l.op(start, e.rs.Now(), 0, err)
		return
	}
	kind := "commit.local"
	if len(t.Parts()) > 1 {
		kind = "commit.2pc"
	}
	id = l.span("commit", root)
	before := e.rs.Now()
	err = t.Commit()
	l.wall.end(id, kind)
	if err == nil {
		e.added += deposit
		l.sample(kind, e.rs.Now()-before)
	}
	l.op(start, e.rs.Now(), 0, err)
}

// finish kills the cluster inside a cross-shard commit, after the
// coordinator's decision is durable and before phase 2, recovers it, and
// audits the books: recovery must resolve the in-doubt participants to
// commit, and no deposit may be lost or invented.
func (e *bankEnv) finish(out *closing) {
	e.c.Wait(e.rs)
	e.c.Coordinator().CrashAfterDecide()
	crashed := false
	for try := 0; try < 200 && !crashed; try++ {
		from, to := e.rng.Int63n(e.a.N), e.rng.Int63n(e.a.N)
		if e.c.ShardFor(from) == e.c.ShardFor(to) {
			continue
		}
		t, err := e.rs.Begin()
		if err == nil {
			if err = e.a.Transfer(t, from, to, 1); err == nil {
				err = t.Commit()
			} else {
				_ = t.Abort()
			}
		}
		crashed = errors.Is(err, txn.ErrCrashed)
		if err != nil && !crashed {
			out.check("crash_transfer", false, "%v", err)
			return
		}
	}
	if !crashed {
		out.check("crash_fires", false, "no cross-shard transfer met the armed crash")
		return
	}

	c2, rs, err := shard.Recover(e.cfg, e.c.Databases())
	if err != nil {
		out.check("recover", false, "%v", err)
		return
	}
	out.layers = map[string]float64{"shard.in_doubt_resolved": float64(rs.ResolvedCommit + rs.ResolvedAbort)}
	// The shards recover side by side, so the slowest one is the wait.
	for _, s := range rs.PerShard {
		if t := ms(s.Elapsed); t > out.recoveryMs {
			out.recoveryMs = t
		}
		out.layers["wal.recovery_records"] += float64(s.Records)
		out.layers["wal.recovery_pages_applied"] += float64(s.PagesApplied)
	}
	left := 0
	for i := 0; i < c2.Shards(); i++ {
		left += len(c2.Shard(i).Log.InDoubt())
	}
	out.check("in_doubt_resolved", rs.InDoubt > 0 && rs.ResolvedCommit == rs.InDoubt && left == 0,
		"%d in doubt, %d committed, %d aborted, %d left", rs.InDoubt, rs.ResolvedCommit, rs.ResolvedAbort, left)

	total, err := e.a.Attach(c2).TotalBalance(c2.NewSession())
	want := e.a.N*bankBalance + e.added
	out.check("balance_conserved", err == nil && total == want, "total %d, want %d (%v)", total, want, err)
}

func (e *bankEnv) close() {}
