// Package dss implements the Differentiated Storage Services protocol
// surface used by hStorage-DB (Mesnier et al., SOSP 2011; Section 5 of the
// hStorage-DB paper).
//
// Under DSS an I/O request carries, in addition to its physical
// information (LBA, length, direction), a classification — here a caching
// priority — that the storage system may use to pick a service mechanism.
// The protocol is backward compatible: a legacy storage system simply
// ignores the class.
package dss

import (
	"fmt"
	"time"

	"hstoragedb/internal/device"
	"hstoragedb/internal/simclock"
)

// Class is the QoS policy attached to a request. For the hybrid storage
// system of this paper, classes are caching priorities: smaller numbers
// are higher priorities (a better chance to be cached). Two values are
// special: ClassNone marks an unclassified (legacy) request, and
// ClassWriteBuffer marks update requests that may claim write-buffer
// space over any other priority (Rule 4).
type Class int

const (
	// ClassNone marks a request without classification. A
	// classification-aware storage system treats it like the lowest
	// caching priority that still permits monitoring-based policies; the
	// LRU baseline ignores classes entirely.
	ClassNone Class = 0

	// ClassWriteBuffer is the special "write buffer" priority of Rule 4:
	// an update request wins cache space over requests of any other
	// priority, within the write-buffer budget b.
	ClassWriteBuffer Class = -1

	// ClassLog is the pinned highest-priority class carried by write-ahead
	// log traffic (the OLTP extension of Section 8). Log writes are the
	// most latency-critical requests a DBMS issues: a transaction cannot
	// commit before its log records are durable. A classification-aware
	// storage system completes them on the cache device and never evicts
	// them: log blocks stay there, dirty, until the TRIM that a
	// checkpoint's log truncation issues drops them, so the HDD never
	// receives a copy of the log. A commit is therefore durable only if
	// the cache device and its block mapping survive a crash, as a
	// write-back flash cache with persistent metadata does; Rule 4's
	// write buffer assumes the same of the dirty blocks it holds.
	ClassLog Class = -2

	// ClassCompaction is the band carried by storage-backend maintenance
	// I/O: LSM memtable flushes and compaction sweeps. It is the
	// archetypal "semantically background" traffic — bulk reorganization
	// no requester waits on — so it is always non-caching (reorganized
	// blocks would only pollute the cache) and the device scheduler
	// ranks it below the write buffer: ahead of the 1..N caching
	// priorities in the ladder (a starved compaction eventually stalls
	// foreground writes), but behind the latency-critical log and
	// write-buffer classes, and throttled by the background token budget
	// whenever foreground traffic is waiting.
	ClassCompaction Class = -3
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassNone:
		return "none"
	case ClassWriteBuffer:
		return "write-buffer"
	case ClassLog:
		return "log"
	case ClassCompaction:
		return "compaction"
	default:
		return fmt.Sprintf("prio%d", int(c))
	}
}

// PolicySpace is the 3-tuple {N, t, b} of Section 3.2 plus the random
// priority range [RandLow, RandHigh] of Rule 2.
//
//   - N is the total number of priorities (1..N, smaller is higher).
//   - T is the non-caching threshold: blocks accessed with priority >= T
//     are never admitted to cache. The paper fixes t = N-1, giving two
//     non-caching priorities: N-1 ("non-caching and non-eviction") and N
//     ("non-caching and eviction").
//   - WriteBufferFrac is b: the fraction of cache capacity the write
//     buffer may occupy before it is flushed to the HDD.
type PolicySpace struct {
	N               int
	T               int
	WriteBufferFrac float64
	RandLow         int // n1: highest (numerically lowest) priority for random requests
	RandHigh        int // n2: lowest (numerically highest) priority for random requests
}

// DefaultPolicySpace returns the configuration used throughout the
// paper's evaluation: N = 8 priorities, t = N-1, b = 10%, and random
// requests mapped onto [2, N-2].
func DefaultPolicySpace() PolicySpace {
	return PolicySpace{N: 8, T: 7, WriteBufferFrac: 0.10, RandLow: 2, RandHigh: 6}
}

// Validate reports whether the space is self-consistent.
func (p PolicySpace) Validate() error {
	switch {
	case p.N <= 2:
		return fmt.Errorf("dss: N must exceed 2, got %d", p.N)
	case p.T < 0 || p.T > p.N:
		return fmt.Errorf("dss: threshold t=%d outside [0,%d]", p.T, p.N)
	case p.WriteBufferFrac < 0 || p.WriteBufferFrac > 1:
		return fmt.Errorf("dss: write buffer fraction %v outside [0,1]", p.WriteBufferFrac)
	case p.RandLow < 1 || p.RandHigh < p.RandLow || p.RandHigh >= p.T:
		return fmt.Errorf("dss: random range [%d,%d] invalid for t=%d", p.RandLow, p.RandHigh, p.T)
	}
	return nil
}

// Temporary returns the priority for temporary-data requests (Rule 3):
// the highest priority, 1.
func (p PolicySpace) Temporary() Class { return 1 }

// Sequential returns the "non-caching and non-eviction" priority assigned
// to sequential requests (Rule 1): N-1.
func (p PolicySpace) Sequential() Class { return Class(p.N - 1) }

// Eviction returns the "non-caching and eviction" priority (Rule 3's TRIM
// workaround): N.
func (p PolicySpace) Eviction() Class { return Class(p.N) }

// NonCaching reports whether blocks accessed with class c are never
// admitted to cache: classes at or beyond the non-caching threshold t,
// plus the compaction class — bulk reorganization traffic whose blocks
// would only displace useful foreground data.
func (p PolicySpace) NonCaching(c Class) bool {
	if c == ClassCompaction {
		return true
	}
	return c != ClassWriteBuffer && c != ClassLog && c != ClassNone && int(c) >= p.T
}

// TenantID identifies the database tenant (user, service, or billing
// entity) on whose behalf a request is issued. Like the class, it is
// semantic information a conventional block interface strips: carrying
// it down the stack lets the storage system apportion device time and
// cache capacity across tenants (weighted fair shares) instead of
// collapsing every tenant of a class into one FIFO. The zero value is
// DefaultTenant.
type TenantID int

// DefaultTenant is the tenant of unattributed traffic: requests from
// sessions that never bound a tenant, and shared infrastructure work
// (WAL segments, checkpoints) that no single tenant should be billed
// for.
const DefaultTenant TenantID = 0

// Kind distinguishes data requests from TRIM commands.
type Kind int

const (
	// Data is an ordinary read or write.
	Data Kind = iota
	// Trim informs the storage system that an LBA range has become
	// useless (e.g. a deleted temporary file). It carries no payload.
	Trim
)

// Request is a classified block I/O request: the physical information a
// storage manager would traditionally emit, plus the embedded QoS policy
// and two scheduling hints the device I/O scheduler consumes.
type Request struct {
	// Kind distinguishes data traffic from TRIM commands.
	Kind Kind
	// Op is the transfer direction (ignored for TRIM).
	Op device.Op
	// LBA and Blocks delimit the accessed range.
	LBA    int64
	Blocks int
	// Class is the QoS policy embedded in the request.
	Class Class

	// Stream identifies the submitting request stream by its session
	// clock, so the device scheduler can dispatch a registered closed
	// population in priority order (see iosched.Group.Register). Nil
	// marks an anonymous submission.
	Stream *simclock.Clock
	// Background marks work no requester waits on (dirty-page
	// write-back, asynchronous flushes): the device scheduler serves it
	// below every foreground class.
	Background bool

	// Tenant attributes the request to a tenant for weighted fair
	// sharing. The device scheduler orders same-class requests of
	// different tenants by virtual finish time (see iosched), and the
	// priority cache charges the block against the tenant's capacity
	// share. Zero (DefaultTenant) marks unattributed traffic.
	Tenant TenantID
}

// String implements fmt.Stringer.
func (r Request) String() string {
	if r.Kind == Trim {
		return fmt.Sprintf("trim[%d+%d %s]", r.LBA, r.Blocks, r.Class)
	}
	return fmt.Sprintf("%s[%d+%d %s]", r.Op, r.LBA, r.Blocks, r.Class)
}

// Storage is a block storage system that accepts classified requests. A
// request arrives at virtual time `at`; Submit returns the request's
// completion time. Implementations must be safe for concurrent use.
type Storage interface {
	Submit(at time.Duration, req Request) time.Duration
}
