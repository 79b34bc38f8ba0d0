// Package wal implements the write-ahead log of the OLTP extension
// (Section 8 of the paper names OLTP as the ongoing work; log data is the
// request class that extension adds to the classification of Section 4).
//
// The log is a sequence of LSN-stamped records stored in fixed-size
// segment files laid out on the simulated device through the same
// classification-enabled storage manager every other object uses — so
// every log page write reaches the storage system tagged policy.Log and
// classified dss.ClassLog, the pinned highest-priority class. The log
// owns its record format: callers hand it page images and outcomes, and
// every data page, table or index, is one KindPage record.
//
// Recovery is ARIES-style redo-only under a no-steal buffer pool, with no
// page LSNs. A page record carries what its transaction changed: the
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

// Kind is a log record's type, its first byte. The log alone decides it:
// callers choose among transaction outcomes, and every page change is a
// KindPage record whatever wrote it, because nothing below the log acts on
// more. Byte values are part of the format; any other byte, zero included,
// reads as the end of the log.
type Kind uint8

const (
	// KindBegin opens a transaction.
	KindBegin Kind = 1
	// KindCommit makes a transaction's effects durable.
	KindCommit Kind = 2
	// KindAbort records a rolled-back transaction (advisory: a
	// transaction without a commit record is never redone).
	KindAbort Kind = 3
	// KindPage carries the redo of one data page: the bytes its
	// transaction changed (redo.go has the encoding).
	KindPage Kind = 5
	// KindHeapUpdate is another name for KindPage, kept for callers
	// written against the per-operation page kinds.
	KindHeapUpdate = KindPage
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
)

var kindNames = [...]string{
	KindBegin: "begin", KindCommit: "commit", KindAbort: "abort", KindPage: "page",
	KindCheckpoint: "checkpoint", KindPrepare: "prepare",
	KindDecideCommit: "decide-commit", KindDecideAbort: "decide-abort",
}

// defined reports whether k is a record kind. Unwritten log pages read as
// zeroes and a crashed write leaves a torn tail, so anything else ends
// the recovery scan.
func (k Kind) defined() bool { return int(k) < len(kindNames) && kindNames[k] != "" }

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k.defined() {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
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

// DefaultBaseObject starts the reserved WAL object range.
const DefaultBaseObject = pagestore.LogBase

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

	segBuf     []byte // active segment content
	scratch    []byte // the page redo Append is encoding
	flushedLen int    // bytes durable in the active segment
	activeSeg  int64  // sequence number of the active segment
	oldestSeg  int64  // first live segment

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
	m.mAppends = reg.Counter("wal.appends")
	m.mFlushes = reg.Counter("wal.flushes")
	m.mPageWrites = reg.Counter("wal.pagewrites")
	m.mCheckpoints = reg.Counter("wal.checkpoints")
}

// ---- record encoding ----

// A record is its kind byte, five varint fields (transaction, LSN,
// object, page, image length; the signed ones zigzag-encoded as
// binary.AppendVarint does) and the image bytes.

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

func appendRecord(dst []byte, r Record) []byte {
	dst = append(dst, byte(r.Kind))
	for _, v := range [...]uint64{zigzag(r.Txn), zigzag(int64(r.LSN)), uint64(r.Obj), zigzag(r.Page), uint64(len(r.Image))} {
		dst = binary.AppendUvarint(dst, v)
	}
	return append(dst, r.Image...)
}

// parseRecord decodes one record at the head of src. A byte that is no
// kind, or a truncated record (the torn tail of a crashed write),
// consumes nothing, signalling the end of the durable log.
func parseRecord(src []byte) (Record, int) {
	if len(src) == 0 || !Kind(src[0]).defined() {
		return Record{}, 0
	}
	var f [5]uint64
	off := 1
	for i := range f {
		v, n := binary.Uvarint(src[off:])
		if n <= 0 {
			return Record{}, 0
		}
		f[i], off = v, off+n
	}
	if f[4] > uint64(len(src)-off) {
		return Record{}, 0
	}
	r := Record{Kind: Kind(src[0]), Txn: unzigzag(f[0]), LSN: LSN(unzigzag(f[1])),
		Obj: pagestore.ObjectID(f[2]), Page: unzigzag(f[3])}
	if f[4] > 0 {
		r.Image = src[off : off+int(f[4])]
	}
	return r, off + int(f[4])
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

// newManager is the manager New and Recover start from: an empty active
// segment, LSNs and transaction IDs from 1.
func newManager(mgr *storagemgr.Manager, cfg Config) *Manager {
	cfg = cfg.withDefaults()
	// A page of room past the segment holds the record Append encodes
	// before finding it does not fit.
	m := &Manager{cfg: cfg, mgr: mgr, nextLSN: 1,
		segBuf: make([]byte, 0, cfg.segCapacity()+pagestore.PageSize), mu: simclock.NewMutex()}
	m.nextTxn.Store(1)
	return m
}

// New creates a fresh log: metadata page plus the first segment. It fails
// if a WAL already exists in the store (use Recover instead).
func New(clk *simclock.Clock, mgr *storagemgr.Manager, cfg Config) (*Manager, error) {
	m := newManager(mgr, cfg)
	if err := mgr.Store().Create(m.cfg.BaseObject); err != nil {
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
	if r.Kind == KindPage {
		m.scratch = appendRedo(m.scratch[:0], r.Pre, r.Image)
		r.Image = m.scratch
	}
	start := len(m.segBuf)
	if m.segBuf = appendRecord(m.segBuf, r); len(m.segBuf) > m.cfg.segCapacity() {
		size := len(m.segBuf) - start
		m.segBuf = m.segBuf[:start]
		if size > m.cfg.segCapacity() {
			return 0, fmt.Errorf("wal: record of %d bytes exceeds segment capacity", size)
		}
		if err := m.rollover(clk); err != nil {
			return 0, err
		}
		m.segBuf = appendRecord(m.segBuf, r)
	}
	m.nextLSN++
	m.lastLSN = r.LSN
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
	m.flushedLen = 0
	return m.writeMeta(clk)
}

// flushLocked writes every unflushed page of the active segment and
// stamps the flush completion time — whoever triggered it (an explicit
// Flush, a rollover inside Append, a checkpoint), so a commit covered by
// someone else's flush advances to a meaningful instant. Caller holds
// m.mu.
func (m *Manager) flushLocked(clk *simclock.Clock) error {
	segLen := len(m.segBuf)
	if m.flushedLen >= segLen {
		m.durableLSN = m.lastLSN
		return nil
	}
	obj := m.segObject(m.activeSeg)
	first := int64(m.flushedLen / pagestore.PageSize)
	last := int64((segLen - 1) / pagestore.PageSize)
	flushStart := clk.Now()
	for p := first; p <= last; p++ {
		lo := int(p) * pagestore.PageSize
		hi := min(lo+pagestore.PageSize, segLen)
		// Hand over a copy: the store keeps it, and segBuf is written again.
		page := append(pagestore.NewPage(0), m.segBuf[lo:hi]...)
		if err := m.mgr.WritePage(clk, logTag(obj), p, page); err != nil {
			return err
		}
		m.stats.PageWrites++
		m.mPageWrites.Inc()
	}
	m.flushedLen = segLen
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
	// The meta page stops naming the truncated segments before they are
	// deleted: a crash in between leaves segments no meta page names,
	// which Recover deletes, never a meta page naming deleted ones.
	truncated := m.oldestSeg
	m.oldestSeg = m.activeSeg
	if err := m.writeMeta(clk); err != nil {
		return err
	}
	for seq := truncated; seq < m.activeSeg; seq++ {
		if err := m.mgr.DeleteObject(clk, m.segObject(seq)); err != nil {
			return err
		}
	}
	if m.tracer != nil {
		m.tracer.Span("wal", "checkpoint", clk.ID(), ckptStart, clk.Now()-ckptStart,
			map[string]any{"lsn": int64(lsn)})
	}
	return nil
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

// txnFate is what recovery's walk of the log learns about one
// transaction.
type txnFate struct {
	committed, aborted, prepared bool
	gtid                         int64
	active                       bool     // has a record past the checkpoint
	pages                        []Record // its page records, in LSN order
}

// Recover opens an existing WAL after a crash: it scans every live
// segment, redoes the page records of committed transactions in LSN
// order, and returns a manager positioned at the end of the log. Log
// reads classify under the log class; redo writes classify as ordinary
// updates (Rule 4). The caller's instance must be fresh: a cold buffer
// pool over the surviving page store.
func Recover(clk *simclock.Clock, mgr *storagemgr.Manager, cfg Config) (*Manager, *RecoveryStats, error) {
	start := clk.Now()
	m := newManager(mgr, cfg)
	cfg = m.cfg
	meta, err := mgr.ReadPage(clk, logTag(cfg.BaseObject), 0)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: no log to recover: %w", err)
	}
	oldest, next, ckpt, err := decodeMeta(meta)
	if err != nil {
		return nil, nil, err
	}
	m.oldestSeg, m.activeSeg, m.checkpointLSN = oldest, next-1, ckpt
	// A crash can leave segments the meta page does not name: one a
	// rollover created before its meta write, or the truncated ones a
	// checkpoint had not finished deleting. A later rollover or checkpoint
	// would trip over them, so they go now.
	store := mgr.Store()
	for seq := next; store.Exists(m.segObject(seq)); seq++ {
		if err := mgr.DeleteObject(clk, m.segObject(seq)); err != nil {
			return nil, nil, err
		}
	}
	for seq := oldest - 1; seq >= 0 && store.Exists(m.segObject(seq)); seq-- {
		if err := mgr.DeleteObject(clk, m.segObject(seq)); err != nil {
			return nil, nil, err
		}
	}

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
					// A byte that is no kind is the end of the durable
					// log; a stall on a kind is a record spanning into
					// the next page — keep reading.
					if parsed < len(stream) && !Kind(stream[parsed]).defined() {
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
			m.flushedLen = parsed
		}
	}
	stats.Records = len(records)

	// One walk classifies every record: the LSN and transaction
	// horizons, the coordinator's decisions, and each transaction's
	// outcome and page records. A decide record's Txn is a GTID, not a
	// transaction of this log.
	fates := make(map[int64]*txnFate)
	m.indoubt, m.decisions = make(map[int64]inDoubt), make(map[int64]bool)
	maxCommit, maxTxn := m.checkpointLSN, int64(0)
	for _, r := range records {
		m.nextLSN = max(m.nextLSN, r.LSN+1)
		maxTxn = max(maxTxn, r.Txn)
		if r.Kind == KindDecideCommit || r.Kind == KindDecideAbort {
			m.decisions[r.Txn] = r.Kind == KindDecideCommit
			continue
		}
		f := fates[r.Txn]
		if f == nil {
			f = &txnFate{}
			fates[r.Txn] = f
		}
		f.active = f.active || r.LSN > m.checkpointLSN
		switch r.Kind {
		case KindCommit:
			f.committed = true
			maxCommit = max(maxCommit, r.LSN)
		case KindAbort:
			f.aborted = true
		case KindPrepare:
			f.prepared, f.gtid = true, r.Page
		case KindPage:
			f.pages = append(f.pages, r)
		}
	}
	m.nextTxn.Store(max(1, maxTxn+1))
	m.nextLSN = max(m.nextLSN, m.checkpointLSN+1)
	m.lastLSN = m.nextLSN - 1
	m.durableLSN = m.lastLSN
	// The recovered state is exactly the committed single-version state:
	// snapshots may begin at the newest recovered commit immediately.
	m.watermark.Store(int64(maxCommit))

	// Committed transactions are redone past the last checkpoint only:
	// the checkpoint flushed everything older, so the store holds a
	// committed version of every page since it. Prepared transactions
	// without a decision are in-doubt: their page records are held back
	// (neither replayed nor discarded) until the coordinator's decision
	// log settles them through ResolveInDoubt. The counts cover the
	// transactions with activity past the checkpoint: the ones recovery
	// actually decided about.
	var redos []Record
	for id, f := range fates {
		counted := f.active && id != 0
		switch {
		case f.committed:
			for _, r := range f.pages {
				if r.LSN > m.checkpointLSN {
					redos = append(redos, r)
				}
			}
			if counted {
				stats.CommittedTxns++
			}
		case f.prepared && !f.aborted:
			m.indoubt[id] = inDoubt{gtid: f.gtid, records: f.pages}
			if counted {
				stats.InDoubtTxns++
			}
		case counted:
			stats.LoserTxns++
		}
	}
	if stats.PagesApplied, err = redo(clk, mgr, redos); err != nil {
		return nil, nil, err
	}
	stats.Elapsed = clk.Now() - start
	return m, stats, nil
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
