// Package wal implements the write-ahead log of the OLTP extension
// (Section 8 of the paper names OLTP as the ongoing work; log data is the
// request class that extension adds to the classification of Section 4).
//
// The log is a sequence of LSN-stamped records stored in fixed-size
// segment files laid out on the simulated device through the same
// classification-enabled storage manager every other object uses — so
// every log page write reaches the storage system tagged policy.Log and
// classified dss.ClassLog, the pinned highest-priority class.
//
// Recovery is ARIES-style redo-only under a no-steal buffer pool, with no
// page LSNs. A data-page record carries what its transaction changed: the
// page's new length and the byte runs of its final image that differ, at
// the same offset, from the image the transaction first touched (redo.go
// has the encoding). Runs only overwrite. Under strict two-phase page
// locking a page's first-touch image is the previous committed version,
// so take a page's committed records since the last checkpoint and replay
// them in LSN order onto any committed version of the page since that
// checkpoint: the result is the final image. For each byte, the last
// record that wrote it carries its final value, and a byte no record
// wrote is the same in every version. That is the idempotence condition,
// and it holds no matter which versions reached the disk before the
// crash. It assumes a page write is atomic: a torn page is no committed
// version. Redo therefore reads each page's base from the store, unless
// the page's first record is a whole image (a page the transaction
// created, or one whose runs would be no smaller than the image).
// Uncommitted transactions need no undo: their pages were pinned in
// memory and died with it.
//
// Commit durability uses a group-commit window on the committing
// session's simulated clock: flushes are spaced at least one window
// apart, and a commit whose records were already covered by another
// session's flush pays only the wait, not another device write.
package wal

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"hstoragedb/internal/engine/bufferpool"
	"hstoragedb/internal/engine/policy"
	"hstoragedb/internal/engine/storagemgr"
	"hstoragedb/internal/obs"
	"hstoragedb/internal/pagestore"
	"hstoragedb/internal/simclock"
)

// LSN is a log sequence number: the position of a record in the log.
type LSN int64

// Kind enumerates log record types.
type Kind uint8

const (
	// kindEnd (zero) marks the end of the durable log: unwritten log
	// pages read as zeroes, so the recovery scan stops there naturally.
	kindEnd Kind = 0

	// KindBegin opens a transaction.
	KindBegin Kind = 1
	// KindCommit makes a transaction's effects durable.
	KindCommit Kind = 2
	// KindAbort records a rolled-back transaction (advisory: a
	// transaction without a commit record is never redone).
	KindAbort Kind = 3
	// KindHeapInsert records the redo of a heap page after an insert.
	KindHeapInsert Kind = 4
	// KindHeapUpdate records the redo of a heap page after an update.
	KindHeapUpdate Kind = 5
	// KindHeapDelete records the redo of a heap page after a delete.
	KindHeapDelete Kind = 6
	// KindIndexInsert records the redo of an index page after an insert.
	KindIndexInsert Kind = 7
	// KindIndexDelete records the redo of an index page after a delete.
	KindIndexDelete Kind = 8
	// KindCheckpoint marks a fuzzy checkpoint: every committed effect
	// below this LSN is on disk, so earlier segments can be truncated.
	KindCheckpoint Kind = 9

	// KindPrepare marks a transaction prepared under two-phase commit:
	// its page records precede it in the log, its locks are still held,
	// and its fate belongs to the coordinator. The record's Page field
	// carries the global transaction ID (GTID) so recovery can match the
	// local transaction against the coordinator's decision log. A
	// prepared transaction without a later commit/abort record is
	// in-doubt at recovery, not a loser.
	KindPrepare Kind = 10
	// KindDecideCommit is a coordinator decision-log record: the global
	// transaction (Txn holds the GTID) is committed. Participants that
	// recover in-doubt redo their prepared page records iff this record
	// exists; its absence means abort (presumed abort).
	KindDecideCommit Kind = 11
	// KindDecideAbort is the advisory abort decision: recovery treats a
	// missing decision as abort anyway, but logging it lets the decision
	// log read like the history it is.
	KindDecideAbort Kind = 12

	// maxKind is the highest valid kind; parseRecord treats anything
	// above it as the torn tail of a crashed write.
	maxKind = KindDecideAbort
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindBegin:
		return "begin"
	case KindCommit:
		return "commit"
	case KindAbort:
		return "abort"
	case KindHeapInsert:
		return "heap-insert"
	case KindHeapUpdate:
		return "heap-update"
	case KindHeapDelete:
		return "heap-delete"
	case KindIndexInsert:
		return "index-insert"
	case KindIndexDelete:
		return "index-delete"
	case KindCheckpoint:
		return "checkpoint"
	case KindPrepare:
		return "prepare"
	case KindDecideCommit:
		return "decide-commit"
	case KindDecideAbort:
		return "decide-abort"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// PageRecord reports whether the kind carries a page redo.
func (k Kind) PageRecord() bool { return k >= KindHeapInsert && k <= KindIndexDelete }

// contentOf maps a page-record kind to the content type of the page it
// redoes, so replay writes classify like the original update traffic.
func contentOf(k Kind) policy.ContentType {
	if k == KindIndexInsert || k == KindIndexDelete {
		return policy.Index
	}
	return policy.Table
}

// Record is one log record. A page record handed to Append carries the
// page's final image in Image and the image the transaction first touched
// in Pre (nil: the page had none, or the caller has only the final
// image); the log stores the redo of one against the other. A page record
// read back from the log carries that redo in Image.
type Record struct {
	LSN   LSN
	Txn   int64
	Kind  Kind
	Obj   pagestore.ObjectID
	Page  int64
	Image []byte
	Pre   []byte
}

// Config sizes the log.
type Config struct {
	// BaseObject is the first object ID of the reserved WAL range: the
	// metadata page lives there and segment k at BaseObject+1+k.
	BaseObject pagestore.ObjectID
	// SegmentPages is the size of one log segment in pages.
	SegmentPages int
	// GroupCommitWindow is the minimum spacing between log flushes on the
	// simulated clock: commits arriving inside the window share a flush.
	GroupCommitWindow time.Duration
}

// DefaultBaseObject starts the reserved WAL object range (below the
// temporary-file range at 1<<30).
const DefaultBaseObject pagestore.ObjectID = 1 << 29

// DefaultConfig returns the sizing used by tests and experiments.
func DefaultConfig() Config {
	return Config{
		BaseObject:        DefaultBaseObject,
		SegmentPages:      256,
		GroupCommitWindow: 50 * time.Microsecond,
	}
}

func (c Config) withDefaults() Config {
	if c.BaseObject == 0 {
		c.BaseObject = DefaultBaseObject
	}
	if c.SegmentPages <= 1 {
		c.SegmentPages = 256
	}
	return c
}

// segCapacity is the byte capacity of one segment.
func (c Config) segCapacity() int { return c.SegmentPages * pagestore.PageSize }

// logTag is the semantic tag of all WAL I/O.
func logTag(obj pagestore.ObjectID) policy.Tag {
	return policy.Tag{Object: obj, Content: policy.Log, Pattern: policy.Sequential}
}

// Stats are cumulative log-manager counters.
type Stats struct {
	Appends     int64
	Flushes     int64
	PageWrites  int64
	Checkpoints int64
	Segments    int64 // live segment count
	DurableLSN  LSN
}

// Manager is the log manager: it owns the active segment buffer and the
// durability horizon. All methods are safe for concurrent use.
type Manager struct {
	// mu is held across log I/O (a force, a rollover), so a stream that
	// waits for it is parked, and served in its turn: every method that
	// has a clock takes it with Lock. owner is the clock Lock was given;
	// a stream finds its own clock there only while it holds mu.
	mu    simclock.Mutex
	owner atomic.Pointer[simclock.Clock]

	cfg Config
	mgr *storagemgr.Manager

	segBuf     []byte // active segment content, [0, segLen)
	scratch    []byte // the page record Append is encoding
	segLen     int
	flushedLen int   // bytes durable in the active segment
	activeSeg  int64 // sequence number of the active segment
	oldestSeg  int64 // first live segment

	nextLSN       LSN
	lastLSN       LSN // last appended
	durableLSN    LSN
	checkpointLSN LSN
	nextTxn       atomic.Int64

	lastFlushStart simclock.Duration
	lastFlushDone  simclock.Duration

	// watermark is the commit-LSN watermark of the MVCC snapshot store:
	// the highest commit LSN whose transaction is durable and whose page
	// versions are sealed. Snapshots begin here. Atomic (read on every
	// snapshot begin, outside mu).
	watermark atomic.Int64

	// indoubt holds the prepared-but-undecided transactions Recover
	// found, keyed by local transaction ID, until ResolveInDoubt settles
	// them. Guarded by mu.
	indoubt map[int64]inDoubt
	// decisions are the coordinator decisions Recover found in this log
	// (GTID -> committed), populated only when recovering a decision
	// log. Guarded by mu.
	decisions map[int64]bool

	stats Stats

	// Registry instruments and tracer, nil (inert) until Use attaches a
	// set.
	tracer       *obs.Tracer
	mAppends     *obs.Counter
	mFlushes     *obs.Counter
	mPageWrites  *obs.Counter
	mCheckpoints *obs.Counter
}

// Use attaches an observability set: the log manager registers its
// counters (`wal.appends`, `wal.flushes`, `wal.pagewrites`,
// `wal.checkpoints`) and records `wal`/`flush` and `wal`/`checkpoint`
// spans on the simulated timeline. A nil set detaches.
func (m *Manager) Use(set *obs.Set) {
	m.mu.Lock(nil)
	defer m.mu.Unlock()
	m.tracer = set.Trace()
	reg := set.Registry()
	if reg == nil {
		m.mAppends, m.mFlushes, m.mPageWrites, m.mCheckpoints = nil, nil, nil, nil
		return
	}
	m.mAppends = reg.Counter("wal.appends")
	m.mFlushes = reg.Counter("wal.flushes")
	m.mPageWrites = reg.Counter("wal.pagewrites")
	m.mCheckpoints = reg.Counter("wal.checkpoints")
}

// ---- record encoding ----

func appendRecord(dst []byte, r Record) []byte {
	dst = append(dst, byte(r.Kind))
	dst = binary.AppendVarint(dst, r.Txn)
	dst = binary.AppendVarint(dst, int64(r.LSN))
	dst = binary.AppendUvarint(dst, uint64(r.Obj))
	dst = binary.AppendVarint(dst, r.Page)
	dst = binary.AppendUvarint(dst, uint64(len(r.Image)))
	dst = append(dst, r.Image...)
	return dst
}

// recordSize returns the encoded size of r without materializing it.
func recordSize(r Record) int {
	var w [binary.MaxVarintLen64]byte
	n := 1
	n += binary.PutVarint(w[:], r.Txn)
	n += binary.PutVarint(w[:], int64(r.LSN))
	n += binary.PutUvarint(w[:], uint64(r.Obj))
	n += binary.PutVarint(w[:], r.Page)
	n += binary.PutUvarint(w[:], uint64(len(r.Image)))
	return n + len(r.Image)
}

// parseRecord decodes one record at the head of src. A zero kind byte (or
// a truncated record: the torn tail of a crashed write) consumes nothing,
// signalling the end of the durable log.
func parseRecord(src []byte) (Record, int) {
	if len(src) == 0 || Kind(src[0]) == kindEnd || Kind(src[0]) > maxKind {
		return Record{}, 0
	}
	r := Record{Kind: Kind(src[0])}
	off := 1
	v, n := binary.Varint(src[off:])
	if n <= 0 {
		return Record{}, 0
	}
	r.Txn = v
	off += n
	v, n = binary.Varint(src[off:])
	if n <= 0 {
		return Record{}, 0
	}
	r.LSN = LSN(v)
	off += n
	u, n := binary.Uvarint(src[off:])
	if n <= 0 {
		return Record{}, 0
	}
	r.Obj = pagestore.ObjectID(u)
	off += n
	v, n = binary.Varint(src[off:])
	if n <= 0 {
		return Record{}, 0
	}
	r.Page = v
	off += n
	u, n = binary.Uvarint(src[off:])
	if n <= 0 || off+n+int(u) > len(src) {
		return Record{}, 0
	}
	off += n
	if u > 0 {
		r.Image = src[off : off+int(u)]
		off += int(u)
	}
	return r, off
}

// ---- metadata page ----

const metaMagic = 0x68574C31 // "hWL1"

func encodeMeta(oldest, next int64, ckpt LSN) []byte {
	buf := make([]byte, 28)
	binary.LittleEndian.PutUint32(buf[0:], metaMagic)
	binary.LittleEndian.PutUint64(buf[4:], uint64(oldest))
	binary.LittleEndian.PutUint64(buf[12:], uint64(next))
	binary.LittleEndian.PutUint64(buf[20:], uint64(ckpt))
	return buf
}

func decodeMeta(data []byte) (oldest, next int64, ckpt LSN, err error) {
	if len(data) < 28 || binary.LittleEndian.Uint32(data[0:]) != metaMagic {
		return 0, 0, 0, fmt.Errorf("wal: bad metadata page")
	}
	return int64(binary.LittleEndian.Uint64(data[4:])),
		int64(binary.LittleEndian.Uint64(data[12:])),
		LSN(binary.LittleEndian.Uint64(data[20:])), nil
}

func (m *Manager) segObject(seq int64) pagestore.ObjectID {
	return m.cfg.BaseObject + 1 + pagestore.ObjectID(seq)
}

// Exists reports whether a WAL is present in the backend (i.e. whether
// a previous incarnation must be recovered rather than created).
func Exists(store pagestore.Backend, cfg Config) bool {
	return store.Exists(cfg.withDefaults().BaseObject)
}

// New creates a fresh log: metadata page plus the first segment. It fails
// if a WAL already exists in the store (use Recover instead).
func New(clk *simclock.Clock, mgr *storagemgr.Manager, cfg Config) (*Manager, error) {
	cfg = cfg.withDefaults()
	m := &Manager{cfg: cfg, mgr: mgr, nextLSN: 1,
		segBuf: make([]byte, 0, cfg.segCapacity()), mu: simclock.NewMutex()}
	m.nextTxn.Store(1)
	if err := mgr.Store().Create(cfg.BaseObject); err != nil {
		return nil, fmt.Errorf("wal: log already exists (recover it instead): %w", err)
	}
	if err := mgr.Store().Create(m.segObject(0)); err != nil {
		return nil, err
	}
	if err := m.writeMeta(clk); err != nil {
		return nil, err
	}
	return m, nil
}

// writeMeta persists the metadata page. Caller holds m.mu (or is alone).
func (m *Manager) writeMeta(clk *simclock.Clock) error {
	return m.mgr.WritePage(clk, logTag(m.cfg.BaseObject), 0,
		encodeMeta(m.oldestSeg, m.activeSeg+1, m.checkpointLSN))
}

// NextTxnID allocates a transaction identifier. The counter is atomic
// because allocation needs nothing the log's lock guards: an ID costs
// no wait behind a committer's force (Begin's record, appended next,
// may — and parks for it like every other entry into the log).
func (m *Manager) NextTxnID() int64 {
	return m.nextTxn.Add(1) - 1
}

// Lock enters the log on behalf of clk's stream until Unlock; a
// contended entry parks the stream. The stream's Append and Flush calls
// in between run inside this one critical section instead of entering
// themselves, so no other stream's record interleaves: the commit path
// logs a transaction's page images and its decision record this way.
// Lock does not nest.
func (m *Manager) Lock(clk *simclock.Clock) {
	m.mu.Lock(clk)
	m.owner.Store(clk)
}

// Unlock leaves the critical section Lock entered.
func (m *Manager) Unlock() {
	m.owner.Store(nil)
	m.mu.Unlock()
}

// Append buffers one record and returns its LSN. No log I/O happens
// unless the record forces a segment rollover; durability comes from
// Flush. A page record is encoded as the redo of Image against Pre; the
// images are not retained.
func (m *Manager) Append(clk *simclock.Clock, r Record) (LSN, error) {
	if clk == nil || m.owner.Load() != clk {
		m.Lock(clk)
		defer m.Unlock()
	}
	r.LSN = m.nextLSN
	if r.Kind.PageRecord() {
		m.scratch = appendRedo(m.scratch[:0], r.Pre, r.Image)
		r.Image = m.scratch
	}
	size := recordSize(r)
	if size > m.cfg.segCapacity() {
		return 0, fmt.Errorf("wal: record of %d bytes exceeds segment capacity", size)
	}
	if m.segLen+size > m.cfg.segCapacity() {
		if err := m.rollover(clk); err != nil {
			return 0, err
		}
	}
	m.nextLSN++
	m.lastLSN = r.LSN
	m.segBuf = appendRecord(m.segBuf, r)
	m.segLen = len(m.segBuf)
	m.stats.Appends++
	m.mAppends.Inc()
	return r.LSN, nil
}

// rollover finalizes the active segment and opens the next one. Caller
// holds m.mu.
func (m *Manager) rollover(clk *simclock.Clock) error {
	if err := m.flushLocked(clk); err != nil {
		return err
	}
	m.activeSeg++
	if err := m.mgr.Store().Create(m.segObject(m.activeSeg)); err != nil {
		return err
	}
	m.segBuf = m.segBuf[:0]
	m.segLen, m.flushedLen = 0, 0
	return m.writeMeta(clk)
}

// flushLocked writes every unflushed page of the active segment and
// stamps the flush completion time — whoever triggered it (an explicit
// Flush, a rollover inside Append, a checkpoint), so a commit covered by
// someone else's flush advances to a meaningful instant. Caller holds
// m.mu.
func (m *Manager) flushLocked(clk *simclock.Clock) error {
	if m.flushedLen >= m.segLen {
		m.durableLSN = m.lastLSN
		return nil
	}
	obj := m.segObject(m.activeSeg)
	first := int64(m.flushedLen / pagestore.PageSize)
	last := int64((m.segLen - 1) / pagestore.PageSize)
	flushStart := clk.Now()
	for p := first; p <= last; p++ {
		lo := int(p) * pagestore.PageSize
		hi := lo + pagestore.PageSize
		if hi > m.segLen {
			hi = m.segLen
		}
		if err := m.mgr.WritePage(clk, logTag(obj), p, m.segBuf[lo:hi]); err != nil {
			return err
		}
		m.stats.PageWrites++
		m.mPageWrites.Inc()
	}
	m.flushedLen = m.segLen
	m.durableLSN = m.lastLSN
	m.lastFlushDone = clk.Now()
	m.stats.Flushes++
	m.mFlushes.Inc()
	if m.tracer != nil {
		m.tracer.Span("wal", "flush", clk.ID(), flushStart, clk.Now()-flushStart,
			map[string]any{"pages": last - first + 1, "durable_lsn": int64(m.durableLSN)})
	}
	return nil
}

// Flush makes every record up to lsn durable. If an earlier flush already
// covered lsn, the caller only advances to that flush's completion time
// (the group-commit case); otherwise the flush is gated to at least one
// GroupCommitWindow after the previous one and writes the segment tail.
func (m *Manager) Flush(clk *simclock.Clock, lsn LSN) error {
	if clk == nil || m.owner.Load() != clk {
		m.Lock(clk)
		defer m.Unlock()
	}
	if lsn <= m.durableLSN {
		clk.AdvanceTo(m.lastFlushDone)
		return nil
	}
	tick := m.lastFlushStart + m.cfg.GroupCommitWindow
	if t := clk.Now(); t > tick {
		tick = t
	}
	clk.AdvanceTo(tick)
	m.lastFlushStart = tick
	return m.flushLocked(clk)
}

// Checkpoint flushes the buffer pool's committed dirty pages, appends a
// checkpoint record, forces the log, and truncates every segment before
// the active one — their blocks are TRIMmed out of the cache. The caller
// must guarantee no transaction is mid-flight (the transaction manager's
// drain barrier holds new transactions at Begin and waits out in-flight
// ones before calling here).
func (m *Manager) Checkpoint(clk *simclock.Clock, pool *bufferpool.Pool) error {
	ckptStart := clk.Now()
	if err := pool.FlushAll(clk); err != nil {
		return err
	}
	// The backend must hold everything the pool just flushed durably
	// before the checkpoint record promises it: an LSM memtable flushes
	// to its tree and persists its manifest here.
	if err := m.mgr.Sync(clk); err != nil {
		return err
	}
	m.Lock(clk)
	defer m.Unlock()
	lsn, err := m.Append(clk, Record{Kind: KindCheckpoint})
	if err != nil {
		return err
	}
	if err := m.flushLocked(clk); err != nil {
		return err
	}
	m.checkpointLSN = lsn
	m.stats.Checkpoints++
	m.mCheckpoints.Inc()
	// Everything below the checkpoint is committed and on disk: the
	// snapshot watermark may advance past any pre-checkpoint commit.
	m.PublishCommit(lsn)
	for seq := m.oldestSeg; seq < m.activeSeg; seq++ {
		if err := m.mgr.DeleteObject(clk, m.segObject(seq)); err != nil {
			return err
		}
	}
	m.oldestSeg = m.activeSeg
	if m.tracer != nil {
		m.tracer.Span("wal", "checkpoint", clk.ID(), ckptStart, clk.Now()-ckptStart,
			map[string]any{"lsn": int64(lsn)})
	}
	return m.writeMeta(clk)
}

// Destroy deletes every WAL object (segments and metadata), TRIMming
// their blocks. Experiments call it between runs that share a database.
func (m *Manager) Destroy(clk *simclock.Clock) error {
	m.Lock(clk)
	defer m.Unlock()
	for seq := m.oldestSeg; seq <= m.activeSeg; seq++ {
		if err := m.mgr.DeleteObject(clk, m.segObject(seq)); err != nil {
			return err
		}
	}
	return m.mgr.DeleteObject(clk, m.cfg.BaseObject)
}

// DurableLSN returns the durability horizon.
func (m *Manager) DurableLSN() LSN {
	m.mu.Lock(nil)
	defer m.mu.Unlock()
	return m.durableLSN
}

// PublishCommit advances the commit-LSN watermark to lsn (monotonic: a
// lower value is a no-op). The transaction layer publishes a commit here
// only after its commit record is durable and its page versions are
// sealed, so a snapshot taken at the watermark observes a consistent
// committed state.
func (m *Manager) PublishCommit(lsn LSN) {
	for {
		cur := m.watermark.Load()
		if int64(lsn) <= cur || m.watermark.CompareAndSwap(cur, int64(lsn)) {
			return
		}
	}
}

// CommitWatermark returns the current commit-LSN watermark: the snapshot
// LSN a read-only transaction beginning now uses.
func (m *Manager) CommitWatermark() LSN {
	return LSN(m.watermark.Load())
}

// Stats returns a snapshot of the counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock(nil)
	defer m.mu.Unlock()
	s := m.stats
	s.Segments = m.activeSeg - m.oldestSeg + 1
	s.DurableLSN = m.durableLSN
	return s
}

// ---- recovery ----

// RecoveryStats summarizes one recovery run.
type RecoveryStats struct {
	Segments      int
	Records       int
	CommittedTxns int
	LoserTxns     int // transactions without a commit record: discarded
	// InDoubtTxns counts prepared-but-undecided transactions: their page
	// records are retained, not replayed, until ResolveInDoubt settles
	// them against the coordinator's decision log.
	InDoubtTxns int
	// PagesApplied counts the pages redo wrote, each once however many
	// records it replayed onto it.
	PagesApplied int
	Elapsed      time.Duration
}

// inDoubt is one prepared-but-undecided transaction held back by
// recovery: its global transaction ID and the page records to redo if
// the coordinator's decision turns out to be commit.
type inDoubt struct {
	gtid    int64
	records []Record
}

// InDoubtTxn identifies one prepared-but-undecided transaction surfaced
// by Recover, pairing the participant-local transaction ID with the
// global transaction ID its prepare record carried.
type InDoubtTxn struct {
	Txn  int64
	GTID int64
}

// Recover opens an existing WAL after a crash: it scans every live
// segment, redoes the page records of committed transactions in LSN
// order, and returns a manager positioned at the end of the log. Log
// reads classify under the log class; redo writes classify as ordinary
// updates (Rule 4). The caller's instance must be fresh: a cold buffer
// pool over the surviving page store.
func Recover(clk *simclock.Clock, mgr *storagemgr.Manager, cfg Config) (*Manager, *RecoveryStats, error) {
	cfg = cfg.withDefaults()
	start := clk.Now()
	m := &Manager{cfg: cfg, mgr: mgr, nextLSN: 1,
		segBuf: make([]byte, 0, cfg.segCapacity()), mu: simclock.NewMutex()}
	m.nextTxn.Store(1)
	meta, err := mgr.ReadPage(clk, logTag(cfg.BaseObject), 0)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: no log to recover: %w", err)
	}
	oldest, next, ckpt, err := decodeMeta(meta)
	if err != nil {
		return nil, nil, err
	}
	m.oldestSeg, m.activeSeg, m.checkpointLSN = oldest, next-1, ckpt

	stats := &RecoveryStats{}
	var records []Record
	for seq := oldest; seq < next; seq++ {
		obj := m.segObject(seq)
		stream := make([]byte, 0, cfg.segCapacity())
		parsed := 0
		end := false
		for p := 0; p < cfg.SegmentPages && !end; p++ {
			data, err := mgr.ReadPage(clk, logTag(obj), int64(p))
			if err != nil {
				return nil, nil, err
			}
			stream = append(stream, data...)
			for {
				r, n := parseRecord(stream[parsed:])
				if n == 0 {
					// A zero kind byte is the end of the durable log; a
					// nonzero stall is a record spanning into the next
					// page — keep reading.
					if parsed < len(stream) && stream[parsed] == 0 {
						end = true
					}
					break
				}
				parsed += n
				records = append(records, r)
			}
		}
		stats.Segments++
		if seq == m.activeSeg {
			// Reposition the manager at the end of the recovered stream.
			m.segBuf = append(m.segBuf, stream[:parsed]...)
			m.segLen, m.flushedLen = parsed, parsed
		}
	}
	stats.Records = len(records)

	committed := make(map[int64]bool)
	aborted := make(map[int64]bool)
	prepared := make(map[int64]int64) // local txn -> GTID
	maxCommit := m.checkpointLSN
	for _, r := range records {
		if r.LSN >= m.nextLSN {
			m.nextLSN = r.LSN + 1
		}
		if r.Txn >= m.nextTxn.Load() {
			m.nextTxn.Store(r.Txn + 1)
		}
		switch r.Kind {
		case KindCommit:
			committed[r.Txn] = true
			if r.LSN > maxCommit {
				maxCommit = r.LSN
			}
		case KindAbort:
			aborted[r.Txn] = true
		case KindPrepare:
			prepared[r.Txn] = r.Page
		case KindDecideCommit:
			if m.decisions == nil {
				m.decisions = make(map[int64]bool)
			}
			m.decisions[r.Txn] = true
		case KindDecideAbort:
			if m.decisions == nil {
				m.decisions = make(map[int64]bool)
			}
			m.decisions[r.Txn] = false
		}
	}
	// Prepared transactions without a decision are in-doubt: their page
	// records are held back (neither replayed nor discarded) until the
	// coordinator's decision log settles them through ResolveInDoubt.
	for id, gtid := range prepared {
		if committed[id] || aborted[id] {
			continue
		}
		d := inDoubt{gtid: gtid}
		for _, r := range records {
			if r.Txn == id && r.Kind.PageRecord() {
				d.records = append(d.records, r)
			}
		}
		if m.indoubt == nil {
			m.indoubt = make(map[int64]inDoubt)
		}
		m.indoubt[id] = d
	}
	if m.checkpointLSN >= m.nextLSN {
		m.nextLSN = m.checkpointLSN + 1
	}
	m.lastLSN = m.nextLSN - 1
	m.durableLSN = m.lastLSN
	// The recovered state is exactly the committed single-version state:
	// snapshots may begin at the newest recovered commit immediately.
	m.watermark.Store(int64(maxCommit))

	// Redo the committed page records past the last checkpoint only: the
	// checkpoint flushed everything older, so the store holds a committed
	// version of every page since it.
	var redos []Record
	for _, r := range records {
		if r.Kind.PageRecord() && committed[r.Txn] && r.LSN > m.checkpointLSN {
			redos = append(redos, r)
		}
	}
	if stats.PagesApplied, err = redo(clk, mgr, redos); err != nil {
		return nil, nil, err
	}
	// Count transactions with activity past the checkpoint: the ones
	// recovery actually decided about. Coordinator decision records are
	// not transaction activity in this log (their Txn field is a GTID),
	// so they are excluded.
	active := make(map[int64]bool)
	for _, r := range records {
		if r.Txn != 0 && r.LSN > m.checkpointLSN &&
			r.Kind != KindDecideCommit && r.Kind != KindDecideAbort {
			active[r.Txn] = true
		}
	}
	for id := range active {
		switch {
		case committed[id]:
			stats.CommittedTxns++
		case m.indoubt != nil && hasInDoubt(m.indoubt, id):
			stats.InDoubtTxns++
		default:
			stats.LoserTxns++
		}
	}
	stats.Elapsed = clk.Now() - start
	return m, stats, nil
}

func hasInDoubt(m map[int64]inDoubt, id int64) bool {
	_, ok := m[id]
	return ok
}

// InDoubt lists the prepared-but-undecided transactions Recover held
// back, in ascending local-transaction order.
func (m *Manager) InDoubt() []InDoubtTxn {
	m.mu.Lock(nil)
	out := make([]InDoubtTxn, 0, len(m.indoubt))
	for id, d := range m.indoubt {
		out = append(out, InDoubtTxn{Txn: id, GTID: d.gtid})
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Txn < out[j].Txn })
	return out
}

// Decisions returns the coordinator decisions Recover found in this log,
// keyed by GTID (true = commit). Only a coordinator's decision log
// carries decide records; recovering a participant log yields an empty
// map.
func (m *Manager) Decisions() map[int64]bool {
	m.mu.Lock(nil)
	defer m.mu.Unlock()
	out := make(map[int64]bool, len(m.decisions))
	for gtid, c := range m.decisions {
		out[gtid] = c
	}
	return out
}

// ResolveInDoubt settles one in-doubt transaction against the
// coordinator's verdict. Commit redoes the retained page records and
// logs a commit record (presumed abort: the decision record already made
// the outcome durable at the coordinator, so this is the participant
// catching up); abort logs only the abort record — no-steal means no
// undo. Either way the outcome is forced durable before returning and
// the transaction leaves the in-doubt set.
func (m *Manager) ResolveInDoubt(clk *simclock.Clock, txnID int64, commit bool) error {
	m.Lock(clk)
	d, ok := m.indoubt[txnID]
	delete(m.indoubt, txnID)
	m.Unlock()
	if !ok {
		return fmt.Errorf("wal: txn %d is not in doubt", txnID)
	}
	if commit {
		if _, err := redo(clk, m.mgr, d.records); err != nil {
			return err
		}
	}
	kind := KindAbort
	if commit {
		kind = KindCommit
	}
	lsn, err := m.Append(clk, Record{Txn: txnID, Kind: kind, Page: d.gtid})
	if err != nil {
		return err
	}
	if err := m.Flush(clk, lsn); err != nil {
		return err
	}
	if commit {
		m.PublishCommit(lsn)
	}
	return nil
}
