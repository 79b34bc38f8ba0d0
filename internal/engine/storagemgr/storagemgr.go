// Package storagemgr implements hStorage-DB's restructured storage
// manager (Figure 1): the layer that translates a DBMS page request into
// a block I/O request. Where a conventional storage manager strips all
// semantic information, this one consults the policy assignment table,
// embeds the resulting QoS policy into the request, and delivers it to
// the storage system through the DSS block interface.
//
// The manager also keeps the per-request-type counters behind Figure 4
// (diversity of request types) and issues TRIM commands when temporary
// objects are deleted (Rule 3).
package storagemgr

import (
	"fmt"
	"sync"
	"time"

	"hstoragedb/internal/device"
	"hstoragedb/internal/dss"
	"hstoragedb/internal/engine/policy"
	"hstoragedb/internal/hybrid"
	"hstoragedb/internal/pagestore"
	"hstoragedb/internal/simclock"
)

// TypeStats counts traffic for one request type (Figure 4 plots the
// request-percentage and block-percentage of each).
type TypeStats struct {
	Requests int64
	Blocks   int64
}

// MaintStats counts the backend maintenance work the manager drained
// and submitted: LSM flushes and compactions, their block traffic, and
// the TRIMs compaction freed. All zero over a heap backend.
type MaintStats struct {
	Flushes               int64
	Compactions           int64
	FlushWriteBlocks      int64
	CompactionReadBlocks  int64
	CompactionWriteBlocks int64
	TrimBlocks            int64
}

// Manager is the classification-enabled storage manager.
type Manager struct {
	store   pagestore.Backend
	storage hybrid.System
	table   *policy.AssignmentTable

	mu      sync.Mutex
	types   map[policy.RequestType]*TypeStats
	maint   MaintStats
	tenants map[*simclock.Clock]dss.TenantID
}

// New builds a manager over a storage backend and a storage system.
func New(store pagestore.Backend, storage hybrid.System, table *policy.AssignmentTable) *Manager {
	return &Manager{
		store:   store,
		storage: storage,
		table:   table,
		types:   make(map[policy.RequestType]*TypeStats),
	}
}

// Store exposes the underlying storage backend.
func (m *Manager) Store() pagestore.Backend { return m.store }

// Table exposes the policy assignment table.
func (m *Manager) Table() *policy.AssignmentTable { return m.table }

// Registry exposes the Rule 5 concurrency registry.
func (m *Manager) Registry() *policy.Registry { return m.table.Registry }

// BindTenant attributes all traffic of the session identified by clk to
// tenant t, the same way the buffer pool binds transactions: the session
// clock is the stream identity every request already carries. Requests
// from unbound sessions carry dss.DefaultTenant. Bindings are released
// with UnbindTenant when the session ends.
func (m *Manager) BindTenant(clk *simclock.Clock, t dss.TenantID) {
	m.mu.Lock()
	if m.tenants == nil {
		m.tenants = make(map[*simclock.Clock]dss.TenantID)
	}
	m.tenants[clk] = t
	m.mu.Unlock()
}

// UnbindTenant removes clk's tenant binding.
func (m *Manager) UnbindTenant(clk *simclock.Clock) {
	m.mu.Lock()
	delete(m.tenants, clk)
	m.mu.Unlock()
}

// tenantOf resolves the tenant bound to a session clock.
func (m *Manager) tenantOf(clk *simclock.Clock) dss.TenantID {
	m.mu.Lock()
	t := m.tenants[clk]
	m.mu.Unlock()
	return t
}

func (m *Manager) count(t policy.RequestType, blocks int) {
	m.mu.Lock()
	ts := m.types[t]
	if ts == nil {
		ts = &TypeStats{}
		m.types[t] = ts
	}
	ts.Requests++
	ts.Blocks += int64(blocks)
	m.mu.Unlock()
}

// ReadPage reads one page, classifying the request per the assignment
// table, charging the simulated I/O time to clk, and returning the page
// content. The backend's access plan is submitted in order, each access
// waiting on the previous (a probe cannot read a data block before the
// index block that located it); structure accesses carry the pinnable
// meta class, data accesses the class the table assigned. An empty plan
// (an LSM memtable absorbing the read) costs no device time.
func (m *Manager) ReadPage(clk *simclock.Clock, tag policy.Tag, page int64) ([]byte, error) {
	data, plan, err := m.store.Read(tag.Object, page)
	if err != nil {
		return nil, err
	}
	readTag := tag
	readTag.Update = false // reads are never Rule 4 updates
	class := m.table.Classify(readTag)
	m.submitPlan(clk, plan, class, false)
	m.count(readTag.Type(), 1)
	return data, nil
}

// submitPlan delivers a backend access plan through the DSS interface,
// serializing dependent accesses on the caller's clock. Background
// plans occupy the devices without advancing the clock.
func (m *Manager) submitPlan(clk *simclock.Clock, plan []pagestore.Access, class dss.Class, background bool) {
	tenant := m.tenantOf(clk)
	for _, a := range plan {
		op := device.Read
		if a.Write {
			op = device.Write
		}
		c := class
		if a.Meta {
			c = m.table.MetaClass()
		}
		done := m.storage.Submit(clk.Now(), dss.Request{
			Op:         op,
			LBA:        a.LBA,
			Blocks:     a.Blocks,
			Class:      c,
			Stream:     clk,
			Background: background,
			Tenant:     tenant,
		})
		if !background {
			clk.AdvanceTo(done)
		}
	}
}

// WritePage writes one page synchronously: the caller's clock advances to
// the write's completion. Temporary-data writes carry the temp priority
// (Rule 3); all other writes are updates and carry the write buffer
// policy (Rule 4).
func (m *Manager) WritePage(clk *simclock.Clock, tag policy.Tag, page int64, data []byte) error {
	return m.writePage(clk, tag, page, data, false)
}

// WritePageBackground writes one page without blocking the caller: the
// write occupies the storage system (later requests queue behind it) but
// the caller's clock does not advance. This models write-back by the
// background writer / OS-buffered temporary files: the DBMS never waits
// for a dirty-page flush on its critical path.
func (m *Manager) WritePageBackground(clk *simclock.Clock, tag policy.Tag, page int64, data []byte) error {
	return m.writePage(clk, tag, page, data, true)
}

func (m *Manager) writePage(clk *simclock.Clock, tag policy.Tag, page int64, data []byte, background bool) error {
	plan, err := m.store.Write(tag.Object, page, data)
	if err != nil {
		return err
	}
	writeTag := tag
	if writeTag.Content != policy.Temp && writeTag.Content != policy.Log {
		// Temporary data keeps its Rule 3 class; log segments keep the
		// pinned log class; everything else written back is an update.
		writeTag.Update = true
	}
	m.submitPlan(clk, plan, m.table.Classify(writeTag), background)
	m.count(writeTag.Type(), 1)
	// A write may have tipped the backend over its memtable threshold:
	// deliver the resulting flush/compaction traffic.
	m.drainMaint(clk)
	return nil
}

// drainMaint pulls accumulated backend maintenance (memtable flushes,
// compaction sweeps) and submits it as background traffic under the
// compaction class: no requester waits on it, the scheduler serves it
// below every foreground class out of the background token budget, and
// the non-caching compaction class keeps bulk rewrites out of the SSD
// cache. Compaction-freed extents are TRIMmed (under the usual eviction
// class) so stale cached copies of reorganized blocks are invalidated.
// Charged to no tenant: reorganization serves the whole backend.
func (m *Manager) drainMaint(clk *simclock.Clock) {
	mt, ok := m.store.(pagestore.Maintainer)
	if !ok {
		return
	}
	jobs := mt.DrainMaintenance()
	if len(jobs) == 0 {
		return
	}
	class := m.table.CompactionClass()
	for _, job := range jobs {
		var reads, writes int64
		for _, a := range job.Accesses {
			op := device.Read
			if a.Write {
				op = device.Write
				writes += int64(a.Blocks)
			} else {
				reads += int64(a.Blocks)
			}
			m.storage.Submit(clk.Now(), dss.Request{
				Op:         op,
				LBA:        a.LBA,
				Blocks:     a.Blocks,
				Class:      class,
				Background: true,
			})
		}
		var trimmed int64
		if m.table.Ablation != policy.NoTrim {
			for _, e := range job.Trims {
				if e.Pages == 0 {
					continue
				}
				trimmed += e.Pages
				m.storage.Submit(clk.Now(), dss.Request{
					Kind:   dss.Trim,
					LBA:    e.Start,
					Blocks: int(e.Pages),
					Class:  m.table.TrimClass(),
				})
			}
		}
		m.mu.Lock()
		switch job.Kind {
		case pagestore.MaintFlush:
			m.maint.Flushes++
			m.maint.FlushWriteBlocks += writes
		case pagestore.MaintCompaction:
			m.maint.Compactions++
			m.maint.CompactionReadBlocks += reads
			m.maint.CompactionWriteBlocks += writes
		}
		m.maint.TrimBlocks += trimmed
		m.mu.Unlock()
	}
}

// Sync forces the backend's volatile state (an LSM memtable and its
// manifest) to durable media and submits the implied flush traffic.
// The WAL calls it inside every checkpoint, after the buffer pool
// flush: a checkpoint's promise — everything before it is on disk — must
// hold through the backend too. A no-op over the heap backend.
func (m *Manager) Sync(clk *simclock.Clock) error {
	if s, ok := m.store.(pagestore.Syncer); ok {
		if err := s.Sync(); err != nil {
			return err
		}
	}
	m.drainMaint(clk)
	return nil
}

// MaintStats returns a snapshot of the maintenance counters.
func (m *Manager) MaintStats() MaintStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.maint
}

// DeleteObject removes an object from the page store and informs the
// storage system that its blocks are useless, via TRIM commands carrying
// the "non-caching and eviction" policy.
func (m *Manager) DeleteObject(clk *simclock.Clock, id pagestore.ObjectID) error {
	exts, err := m.store.Delete(id)
	if err != nil {
		return err
	}
	if m.table.Ablation == policy.NoTrim {
		// Legacy path: file deletion changes only file-system metadata;
		// the storage system is never told the blocks are dead.
		exts = nil
	}
	for _, e := range exts {
		if e.Pages == 0 {
			continue
		}
		done := m.storage.Submit(clk.Now(), dss.Request{
			Kind:   dss.Trim,
			LBA:    e.Start,
			Blocks: int(e.Pages),
			Class:  m.table.TrimClass(),
			Tenant: m.tenantOf(clk),
		})
		clk.AdvanceTo(done)
	}
	// Deletion may free backend structures (dropped memtable runs do
	// not, but a backend is free to schedule reclamation here).
	m.drainMaint(clk)
	return nil
}

// TypeStats returns a snapshot of the per-request-type counters.
func (m *Manager) TypeStats() map[policy.RequestType]TypeStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[policy.RequestType]TypeStats, len(m.types))
	for t, ts := range m.types {
		out[t] = *ts
	}
	return out
}

// ResetTypeStats clears the per-request-type and maintenance counters.
func (m *Manager) ResetTypeStats() {
	m.mu.Lock()
	m.types = make(map[policy.RequestType]*TypeStats)
	m.maint = MaintStats{}
	m.mu.Unlock()
}

// FormatTypeStats renders the Figure 4 row for this manager: the
// percentage of requests and blocks in each class.
func (m *Manager) FormatTypeStats() string {
	stats := m.TypeStats()
	var totReq, totBlk int64
	for _, ts := range stats {
		totReq += ts.Requests
		totBlk += ts.Blocks
	}
	if totReq == 0 {
		return "no requests"
	}
	out := ""
	for _, t := range policy.RequestTypes() {
		ts := stats[t]
		out += fmt.Sprintf("%s: %.1f%%/%.1f%% ",
			t, 100*float64(ts.Requests)/float64(totReq), 100*float64(ts.Blocks)/float64(totBlk))
	}
	return out
}

// Wait advances clk past any in-flight background work on both devices
// (asynchronous flushes, dirty evictions). Experiments call it before
// reading final times so background writes are not billed for free. The
// I/O scheduler is drained first so queued background grants land on
// the devices' busy horizons. A zero-length access returns the device's
// busy-until without disturbing its counters.
func (m *Manager) Wait(clk *simclock.Clock) {
	m.storage.Sched().Drain()
	var until time.Duration
	if d := m.storage.HDD(); d != nil {
		if t := d.Access(clk.Now(), device.Read, 0, 0); t > until {
			until = t
		}
	}
	if d := m.storage.SSD(); d != nil {
		if t := d.Access(clk.Now(), device.Read, 0, 0); t > until {
			until = t
		}
	}
	clk.AdvanceTo(until)
}
