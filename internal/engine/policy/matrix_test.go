package policy

import (
	"fmt"
	"testing"

	"hstoragedb/internal/dss"
	"hstoragedb/internal/pagestore"
)

// ablations are the engine's experiment arms: no ablation, or exactly
// one piece of classification withheld from the storage system.
var ablations = []Ablation{NoAblation, NoRule5, NoTrim, NoLogClass, NoCompactionClass}

// TestClassificationMatrix drives the assignment table through every
// (content type x pattern x update flag) combination under every
// ablation arm and checks the resulting request type and QoS class
// against Rules 1-5 plus the log class of the OLTP extension. Only the
// log ablation changes a class: log traffic goes to the write buffer.
// The matrix runs with an empty registry (single-query degenerate case:
// Rule 2 collapses to the lowest random priority because the global
// bounds carry no level spread, so withholding Rule 5 changes nothing).
func TestClassificationMatrix(t *testing.T) {
	space := dss.DefaultPolicySpace() // N=8, t=7, random range [2,6]

	cases := []struct {
		content  ContentType
		pattern  Pattern
		update   bool
		wantType RequestType
		want     dss.Class
	}{
		// Rule 1: sequential requests -> non-caching, non-eviction (N-1).
		{Table, Sequential, false, SequentialRequest, dss.Class(7)},
		{Index, Sequential, false, SequentialRequest, dss.Class(7)},
		// Rule 2 (degenerate): random requests -> lowest random priority.
		{Table, Random, false, RandomRequest, dss.Class(2)},
		{Index, Random, false, RandomRequest, dss.Class(2)},
		// Rule 3: temporary data -> highest priority, whatever else the
		// tag claims.
		{Temp, Sequential, false, TempRequest, dss.Class(1)},
		{Temp, Random, false, TempRequest, dss.Class(1)},
		{Temp, Sequential, true, TempRequest, dss.Class(1)},
		{Temp, Random, true, TempRequest, dss.Class(1)},
		// Rule 4: updates -> write buffer, regardless of pattern.
		{Table, Sequential, true, UpdateRequest, dss.ClassWriteBuffer},
		{Table, Random, true, UpdateRequest, dss.ClassWriteBuffer},
		{Index, Sequential, true, UpdateRequest, dss.ClassWriteBuffer},
		{Index, Random, true, UpdateRequest, dss.ClassWriteBuffer},
		// Log class: WAL traffic -> pinned log class, whatever else the
		// tag claims.
		{Log, Sequential, false, LogRequest, dss.ClassLog},
		{Log, Random, false, LogRequest, dss.ClassLog},
		{Log, Sequential, true, LogRequest, dss.ClassLog},
		{Log, Random, true, LogRequest, dss.ClassLog},
	}
	if len(cases) != 4*2*2 {
		t.Fatalf("matrix incomplete: %d cases, want 16", len(cases))
	}
	for _, abl := range ablations {
		table := NewAssignmentTable(space)
		table.Ablation = abl
		for _, c := range cases {
			name := fmt.Sprintf("ablation %d/%v/%v/update=%v", abl, c.content, c.pattern, c.update)
			tag := Tag{Object: 42, Content: c.content, Pattern: c.pattern, Update: c.update}
			if got := tag.Type(); got != c.wantType {
				t.Errorf("%s: type = %v, want %v", name, got, c.wantType)
			}
			want := c.want
			if abl == NoLogClass && c.wantType == LogRequest {
				want = dss.ClassWriteBuffer
			}
			if got := table.Classify(tag); got != want {
				t.Errorf("%s: class = %v, want %v", name, got, want)
			}
		}

		// Rule 3's deletion side: TRIM carries non-caching and eviction
		// (N).
		if got := table.TrimClass(); got != dss.Class(8) {
			t.Errorf("ablation %d: trim class = %v, want 8", abl, got)
		}
	}
}

// TestClassificationRule5 checks the concurrent random case: with queries
// registered, an object's priority comes from the lowest operator level
// touching it, mapped through Function (1) over the global bounds. Under
// the Rule 5 ablation the tag's own level wins even for shared objects:
// the per-query assignment the paper warns about.
func TestClassificationRule5(t *testing.T) {
	for _, c := range []struct {
		abl    Ablation
		shared dss.Class // class of the object both queries touch
	}{
		// Global bounds are (1,5); the object's minimum level is 2, so
		// the request classifies at Function(1)(i=2, llow=1, lhigh=5) =
		// n1+1 = 3 no matter which level the issuing operator reports.
		{NoAblation, dss.Class(3)},
		// The tag's own level: Function(1)(i=4, 1, 5) = n1+3 = 5.
		{NoRule5, dss.Class(5)},
	} {
		table := NewAssignmentTable(dss.DefaultPolicySpace())
		table.Ablation = c.abl

		const obj pagestore.ObjectID = 7
		q1 := QueryInfo{Levels: map[pagestore.ObjectID][]int{obj: {3}}, LLow: 1, LHigh: 5, HasRandom: true}
		q2 := QueryInfo{Levels: map[pagestore.ObjectID][]int{obj: {2}}, LLow: 2, LHigh: 4, HasRandom: true}
		table.Registry.Register(q1)
		table.Registry.Register(q2)

		tag := Tag{Object: obj, Content: Table, Pattern: Random, Level: 4}
		if got := table.Classify(tag); got != c.shared {
			t.Errorf("ablation %d: shared-object class = %v, want %v", c.abl, got, c.shared)
		}

		// An object nobody registered uses the tag's own level against
		// the global bounds: Function(1)(i=4, 1, 5) = n1+3 = 5.
		other := Tag{Object: 99, Content: Table, Pattern: Random, Level: 4}
		if got := table.Classify(other); got != dss.Class(5) {
			t.Errorf("ablation %d: unregistered-object class = %v, want 5", c.abl, got)
		}

		table.Registry.Unregister(q1)
		table.Registry.Unregister(q2)
		if got := table.Classify(tag); got != dss.Class(2) {
			t.Errorf("ablation %d: after unregister: class = %v, want 2", c.abl, got)
		}
	}
}

// TestLogClassAblation checks the log ablation: under NoLogClass the WAL
// traffic degrades to ordinary Rule 4 update treatment.
func TestLogClassAblation(t *testing.T) {
	table := NewAssignmentTable(dss.DefaultPolicySpace())
	table.Ablation = NoLogClass
	tag := Tag{Object: 1, Content: Log, Pattern: Sequential}
	if got := tag.Type(); got != LogRequest {
		t.Errorf("type = %v, want log (the tag keeps its semantics)", got)
	}
	if got := table.Classify(tag); got != dss.ClassWriteBuffer {
		t.Errorf("ablated class = %v, want write-buffer", got)
	}
}
