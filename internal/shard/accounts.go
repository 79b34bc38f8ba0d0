package shard

import (
	"fmt"
	"strings"
	"time"

	"hstoragedb/internal/engine/btree"
	"hstoragedb/internal/engine/catalog"
	"hstoragedb/internal/engine/heap"
	"hstoragedb/internal/engine/policy"
	"hstoragedb/internal/pagestore"
)

// accountRowCPU is the simulated CPU cost per row operation of the
// accounts workload (decode, lock, index probe, log insert) — same
// calibration as the TPC-H OLTP driver's rowCPU.
const accountRowCPU = 50 * time.Microsecond

// Accounts is the cluster's built-in cross-shard workload: a bank-style
// (id, balance) table hash-partitioned across the shards, probed through
// a per-shard id index. Transfers between accounts on different shards
// are the canonical two-phase-commit transaction, and the global balance
// invariant — transfers conserve the total — is what the crash tests
// check atomicity against.
type Accounts struct {
	c *Cluster
	// N is the total account count; keys are [0, N).
	N int64

	schema  catalog.Schema
	heapIDs []pagestore.ObjectID
	ixIDs   []pagestore.ObjectID
	files   []*heap.File
}

// LoadAccounts creates and bulk-loads the accounts table on every shard:
// each shard receives exactly the keys the hash partition routes to it,
// then builds its id index. Every account starts at balance. Pad widens
// each row by that many filler bytes — experiments use it to spread the
// table over enough pages that uniform random probes are I/O-bound
// rather than served out of the buffer pool.
func (c *Cluster) LoadAccounts(n, balance int64, pad int) (*Accounts, error) {
	a := &Accounts{
		c: c,
		N: n,
		schema: catalog.NewSchema(
			catalog.Column{Name: "id", Type: catalog.Int64},
			catalog.Column{Name: "balance", Type: catalog.Int64},
			catalog.Column{Name: "pad", Type: catalog.String},
		),
	}
	filler := strings.Repeat("x", pad)
	for i, s := range c.shards {
		if _, err := s.DB.CreateTable("accounts", a.schema); err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		l, err := s.Inst.NewLoader("accounts")
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		for key := int64(0); key < n; key++ {
			if c.ShardFor(key) != i {
				continue
			}
			if _, err := l.Add(catalog.Tuple{catalog.IntDatum(key), catalog.IntDatum(balance), catalog.StringDatum(filler)}); err != nil {
				return nil, fmt.Errorf("shard %d: %w", i, err)
			}
		}
		if err := l.Close(); err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		if _, err := s.Inst.BuildIndex("accounts_id", "accounts", "id"); err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		a.heapIDs = append(a.heapIDs, s.DB.Cat.MustTable("accounts").ID)
		a.ixIDs = append(a.ixIDs, s.DB.Cat.MustIndex("accounts_id").ID)
		a.files = append(a.files, heap.NewFile(a.heapIDs[i], a.schema, policy.Table))
	}
	return a, nil
}

// Attach rebinds the workload to a recovered cluster over the same
// databases (object IDs and schemas survive; the instances are new).
func (a *Accounts) Attach(c *Cluster) *Accounts {
	out := *a
	out.c = c
	return &out
}

// lookup probes the shard-local id index for the account's RID.
func (a *Accounts) lookup(p *Part, key int64) (catalog.RID, error) {
	ix := btree.Open(a.ixIDs[p.Shard.ID], p.Sess.Pool())
	var buf [1]catalog.RID // an account id is unique
	rids, err := ix.Lookup(&p.Sess.Clk, key, 0, buf[:0]...)
	if err != nil {
		return catalog.RID{}, err
	}
	if len(rids) == 0 {
		return catalog.RID{}, fmt.Errorf("shard %d: account %d not found", p.Shard.ID, key)
	}
	return rids[0], nil
}

// Balance reads one account inside the routed transaction, enrolling its
// shard as a participant.
func (a *Accounts) Balance(t *Txn, key int64) (int64, error) {
	p, err := t.ForKey(key)
	if err != nil {
		return 0, err
	}
	rid, err := a.lookup(p, key)
	if err != nil {
		return 0, err
	}
	tup, err := a.files[p.Shard.ID].Fetch(&p.Sess.Clk, p.Sess.Pool(), rid, 0)
	if err != nil {
		return 0, err
	}
	if tup == nil {
		return 0, fmt.Errorf("shard %d: account %d vanished", p.Shard.ID, key)
	}
	p.Sess.Clk.Advance(2 * accountRowCPU) // probe + fetch
	return tup[1].I, nil
}

// Add adjusts one account's balance by delta inside the routed
// transaction (read-modify-write under the shard's exclusive page lock).
func (a *Accounts) Add(t *Txn, key, delta int64) error {
	p, err := t.ForKey(key)
	if err != nil {
		return err
	}
	rid, err := a.lookup(p, key)
	if err != nil {
		return err
	}
	f := a.files[p.Shard.ID]
	tup, err := f.Fetch(&p.Sess.Clk, p.Sess.Pool(), rid, 0)
	if err != nil {
		return err
	}
	if tup == nil {
		return fmt.Errorf("shard %d: account %d vanished", p.Shard.ID, key)
	}
	tup = tup.Clone()
	tup[1].I += delta
	if err := f.Update(&p.Sess.Clk, p.Sess.Pool(), rid, tup, 0); err != nil {
		return err
	}
	p.Sess.Clk.Advance(3 * accountRowCPU) // probe + fetch + rewrite
	return nil
}

// Transfer moves amount from one account to another inside the routed
// transaction, touching the two accounts in ascending key order. The
// order does not keep cross-shard lock acquisition cycle-free: locks are
// on pages, and ascending keys need not give ascending heap or
// index-leaf pages on each shard, so two transfers can wait on each
// other across shards, where no per-shard deadlock detector sees the
// cycle (see the package comment).
func (a *Accounts) Transfer(t *Txn, from, to, amount int64) error {
	lo, loDelta, hi, hiDelta := from, -amount, to, amount
	if hi < lo {
		lo, loDelta, hi, hiDelta = to, amount, from, -amount
	}
	if err := a.Add(t, lo, loDelta); err != nil {
		return err
	}
	return a.Add(t, hi, hiDelta)
}

// TotalBalance scans every shard's slice of the table and sums the
// balances — the conservation invariant transfers must preserve. It
// reads the durable state directly (no transaction), so callers run it
// on a quiesced or freshly recovered cluster.
func (a *Accounts) TotalBalance(rs *Session) (int64, error) {
	var total int64
	for i, s := range a.c.shards {
		sc := a.files[i].NewScanner(&rs.sess[i].Clk, s.Inst.Pool, s.DB.Store.Pages(a.heapIDs[i]))
		for {
			tup, _, ok, err := sc.Next()
			if err != nil {
				return 0, fmt.Errorf("shard %d: %w", i, err)
			}
			if !ok {
				break
			}
			if tup != nil {
				total += tup[1].I
			}
		}
	}
	return total, nil
}
