// Package policy implements Section 4 of the paper: the classification of
// DBMS I/O requests and the five rules that map each request type to a QoS
// policy (caching priority), including Function (1) for random requests
// and the shared-memory registry used under concurrency (Rule 5).
package policy

import (
	"fmt"

	"hstoragedb/internal/dss"
	"hstoragedb/internal/pagestore"
)

// ContentType is the semantic content category of an accessed object
// (Section 4.1).
type ContentType int

const (
	// Table is a regular user table.
	Table ContentType = iota
	// Index is an index structure.
	Index
	// Temp is temporary data generated during query execution.
	Temp
	// Log is write-ahead-log data: segment files and WAL metadata. Log
	// writes gate transaction commit, making them the most
	// latency-critical request class of the OLTP extension (Section 8).
	Log
)

// String implements fmt.Stringer.
func (c ContentType) String() string {
	switch c {
	case Table:
		return "table"
	case Index:
		return "index"
	case Temp:
		return "temp"
	case Log:
		return "log"
	}
	return fmt.Sprintf("content(%d)", int(c))
}

// Pattern is the access pattern the query optimizer determined for a
// request.
type Pattern int

const (
	// Sequential marks requests from sequential scans.
	Sequential Pattern = iota
	// Random marks requests from index scans (both the index pages and
	// the table pages they fetch).
	Random
)

// String implements fmt.Stringer.
func (p Pattern) String() string {
	if p == Sequential {
		return "sequential"
	}
	return "random"
}

// RequestType is the classification of Section 4.1: (1) sequential,
// (2) random, (3) temporary data, (4) update — extended with (5) log,
// the request class the OLTP workload of Section 8 adds.
type RequestType int

const (
	// SequentialRequest marks requests issued by sequential scans
	// (Rule 1: non-caching, non-eviction).
	SequentialRequest RequestType = iota
	// RandomRequest marks requests issued by index scans and the table
	// fetches they drive (Rules 2 and 5: level-derived priority).
	RandomRequest
	// TempRequest marks temporary-data requests (Rule 3: highest
	// caching priority, TRIMmed on deletion).
	TempRequest
	// UpdateRequest marks data-modification requests (Rule 4: the
	// write-buffer policy).
	UpdateRequest
	// LogRequest marks write-ahead-log traffic (the OLTP extension's
	// pinned highest-priority class).
	LogRequest
)

// String implements fmt.Stringer.
func (t RequestType) String() string {
	switch t {
	case SequentialRequest:
		return "sequential"
	case RandomRequest:
		return "random"
	case TempRequest:
		return "temporary"
	case UpdateRequest:
		return "update"
	case LogRequest:
		return "log"
	}
	return fmt.Sprintf("reqtype(%d)", int(t))
}

// RequestTypes lists the classes Figure 4 plots, plus the log class of
// the OLTP extension.
func RequestTypes() []RequestType {
	return []RequestType{SequentialRequest, RandomRequest, TempRequest, UpdateRequest, LogRequest}
}

// Tag is the semantic information the buffer pool passes along with each
// page request — the information a conventional storage manager strips
// away.
type Tag struct {
	Object  pagestore.ObjectID
	Content ContentType
	Pattern Pattern
	// Level is the query-plan level of the issuing operator (after
	// blocking-operator recalculation, Section 4.2.2). Meaningful only
	// for Random pattern.
	Level int
	// Update marks data-modification requests (Rule 4).
	Update bool
}

// Type derives the request type of Section 4.1 from a tag.
func (t Tag) Type() RequestType {
	switch {
	case t.Content == Log:
		return LogRequest
	case t.Content == Temp:
		return TempRequest
	case t.Update:
		return UpdateRequest
	case t.Pattern == Random:
		return RandomRequest
	default:
		return SequentialRequest
	}
}

// RandomPriority implements Function (1): the priority of a random request
// issued by an operator at Level i, given the lowest and highest levels of
// random-access operators (llow, lhigh) and the available priority range
// [n1, n2] of the policy space.
func RandomPriority(space dss.PolicySpace, i, llow, lhigh int) dss.Class {
	n1, n2 := space.RandLow, space.RandHigh
	cprio := n2 - n1
	lgap := lhigh - llow
	switch {
	case cprio == 0:
		return dss.Class(n1)
	case lgap == 0:
		return dss.Class(n1)
	case i <= llow:
		return dss.Class(n1)
	case cprio >= lgap:
		p := n1 + i - llow
		if p > n2 {
			p = n2
		}
		return dss.Class(p)
	default:
		// Not enough priorities for every level: spread by relative
		// location, letting neighboring levels share a priority.
		p := n1 + cprio*(i-llow)/lgap
		if p > n2 {
			p = n2
		}
		return dss.Class(p)
	}
}

// Ablation names the one piece of classification an experiment arm
// withholds from the storage system. The zero value withholds nothing.
type Ablation int

const (
	// NoAblation withholds nothing: every rule applies.
	NoAblation Ablation = iota
	// NoRule5 computes random priorities from the tag's own level and
	// the registering query's bounds only: the "non-deterministic
	// priority assignment" the paper warns about.
	NoRule5
	// NoTrim sends no TRIM on object deletion or compaction: the legacy
	// file-system behaviour of Section 4.2.3, where dead blocks stay
	// cached.
	NoTrim
	// NoLogClass delivers WAL traffic as ordinary update traffic (Rule
	// 4), the way a classification-unaware storage manager would emit it.
	NoLogClass
	// NoCompactionClass delivers backend maintenance I/O (flushes,
	// compactions) as ordinary update traffic (Rule 4): a
	// classification-unaware storage manager cannot tell a compaction
	// write from a user update, so it competes with real updates for
	// write-buffer cache space and rank.
	NoCompactionClass
)

// AssignmentTable is the storage manager extension of Figure 1: it turns a
// request's semantic tag into the QoS policy delivered with the request.
// It consults the concurrency registry so Rule 5 applies whenever multiple
// queries run (with a single query registered it degenerates to Rule 2).
type AssignmentTable struct {
	Space    dss.PolicySpace
	Registry *Registry
	// Ablation is the classification withheld from the storage system,
	// if any. The storage manager reads it for NoTrim.
	Ablation Ablation
}

// NewAssignmentTable builds an assignment table over a fresh registry.
func NewAssignmentTable(space dss.PolicySpace) *AssignmentTable {
	return &AssignmentTable{Space: space, Registry: NewRegistry()}
}

// Classify maps a tagged request to its caching priority:
//
//	Rule 1: sequential            -> N-1 (non-caching, non-eviction)
//	Rule 2: random (single query) -> Function (1) over plan levels
//	Rule 3: temporary data        -> 1 (highest)
//	Rule 4: update                -> write buffer
//	Rule 5: random (concurrent)   -> per-object highest priority from the
//	                                 global registry
//	Log:    WAL traffic           -> pinned highest-priority log class
func (a *AssignmentTable) Classify(tag Tag) dss.Class {
	switch tag.Type() {
	case LogRequest:
		if a.Ablation == NoLogClass {
			// Log writes are indistinguishable from ordinary update
			// traffic.
			return dss.ClassWriteBuffer
		}
		return dss.ClassLog
	case TempRequest:
		return a.Space.Temporary()
	case UpdateRequest:
		return dss.ClassWriteBuffer
	case SequentialRequest:
		return a.Space.Sequential()
	case RandomRequest:
		level := tag.Level
		gllow, glhigh := level, level
		if a.Registry != nil {
			if a.Ablation != NoRule5 {
				if min, ok := a.Registry.MinLevel(tag.Object); ok {
					// Rule 5.2: among concurrent queries the object gets
					// the highest of all independently determined
					// priorities, the lowest operator level's.
					level = min
				}
			}
			gllow, glhigh = a.Registry.Bounds()
		}
		return RandomPriority(a.Space, level, gllow, glhigh)
	}
	return dss.ClassNone
}

// TrimClass returns the policy attached to temporary-data deletion (Rule
// 3): "non-caching and eviction".
func (a *AssignmentTable) TrimClass() dss.Class { return a.Space.Eviction() }

// CompactionClass returns the policy attached to storage-backend
// maintenance I/O (memtable flushes, compaction sweeps): the dedicated
// compaction band, or — under the NoCompactionClass ablation — the
// write-buffer class a classification-unaware manager would deliver
// bulk rewrites under.
func (a *AssignmentTable) CompactionClass() dss.Class {
	if a.Ablation == NoCompactionClass {
		return dss.ClassWriteBuffer
	}
	return dss.ClassCompaction
}

// MetaClass returns the policy attached to backend structure blocks
// (bloom filters, index blocks) read on the foreground path: the
// highest cacheable priority, so the hybrid cache pins hot structure
// blocks the way Rule 3 pins temporary data — one structure block
// serves every probe of its table.
func (a *AssignmentTable) MetaClass() dss.Class { return a.Space.Temporary() }
