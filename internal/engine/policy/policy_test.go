package policy

import (
	"testing"
	"testing/quick"

	"hstoragedb/internal/dss"
	"hstoragedb/internal/pagestore"
)

// TestFunction1PaperExample reproduces the worked example of Section 4.2.2
// (Figure 2): available priority range [2,5]; random operators at levels
// 0 (t.a, t.c after blocking recalculation) and 2 (t.b).
func TestFunction1PaperExample(t *testing.T) {
	space := dss.PolicySpace{N: 8, T: 7, RandLow: 2, RandHigh: 5, WriteBufferFrac: 0.1}
	llow, lhigh := 0, 2
	if got := RandomPriority(space, 0, llow, lhigh); got != 2 {
		t.Errorf("t.a (level 0) priority %v, want 2", got)
	}
	if got := RandomPriority(space, 2, llow, lhigh); got != 4 {
		t.Errorf("t.b (level 2) priority %v, want 4", got)
	}
}

func TestFunction1Branches(t *testing.T) {
	space := dss.PolicySpace{N: 8, T: 7, RandLow: 2, RandHigh: 6}
	// Branch 1: Cprio = 0 -> always n1.
	collapsed := dss.PolicySpace{N: 8, T: 7, RandLow: 3, RandHigh: 3}
	if got := RandomPriority(collapsed, 5, 0, 9); got != 3 {
		t.Errorf("collapsed range priority %v, want 3", got)
	}
	// Branch 2: Lgap = 0 -> n1.
	if got := RandomPriority(space, 4, 4, 4); got != 2 {
		t.Errorf("zero gap priority %v, want n1=2", got)
	}
	// Branch 3: Cprio >= Lgap -> n1 + i - llow.
	if got := RandomPriority(space, 3, 1, 4); got != 4 {
		t.Errorf("linear priority %v, want 4", got)
	}
	// Branch 4: Cprio < Lgap -> scaled; neighbors may share priorities.
	// Lgap = 8, Cprio = 4: level 4 of [0,8] -> n1 + floor(4*4/8) = 4.
	if got := RandomPriority(space, 4, 0, 8); got != 4 {
		t.Errorf("scaled priority %v, want 4", got)
	}
	if got := RandomPriority(space, 8, 0, 8); got != 6 {
		t.Errorf("top level priority %v, want n2=6", got)
	}
}

// Property: Function (1) always lands inside [n1, n2] and is monotone in
// the operator level.
func TestFunction1Properties(t *testing.T) {
	space := dss.DefaultPolicySpace()
	f := func(levelRaw, lowRaw, gapRaw uint8) bool {
		llow := int(lowRaw % 16)
		lhigh := llow + int(gapRaw%16)
		level := llow + int(levelRaw)%(lhigh-llow+1)
		p := int(RandomPriority(space, level, llow, lhigh))
		if p < space.RandLow || p > space.RandHigh {
			return false
		}
		// Monotonicity: one level deeper never yields a better (smaller)
		// priority for the shallower operator.
		if level+1 <= lhigh {
			p2 := int(RandomPriority(space, level+1, llow, lhigh))
			if p2 < p {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTagTypes(t *testing.T) {
	cases := []struct {
		tag  Tag
		want RequestType
	}{
		{Tag{Content: Temp}, TempRequest},
		{Tag{Content: Temp, Update: true}, TempRequest}, // temp beats update
		{Tag{Content: Table, Update: true}, UpdateRequest},
		{Tag{Content: Table, Pattern: Random}, RandomRequest},
		{Tag{Content: Index, Pattern: Random}, RandomRequest},
		{Tag{Content: Table, Pattern: Sequential}, SequentialRequest},
	}
	for i, c := range cases {
		if got := c.tag.Type(); got != c.want {
			t.Errorf("case %d: %v, want %v", i, got, c.want)
		}
	}
}

// TestTable1Mapping verifies the full policy assignment table (Table 1).
func TestTable1Mapping(t *testing.T) {
	a := NewAssignmentTable(dss.DefaultPolicySpace())
	space := a.Space

	if got := a.Classify(Tag{Content: Temp}); got != 1 {
		t.Errorf("temp -> %v, want priority 1", got)
	}
	if got := a.Classify(Tag{Content: Table, Pattern: Sequential}); got != space.Sequential() {
		t.Errorf("sequential -> %v, want %v (N-1)", got, space.Sequential())
	}
	if got := a.Classify(Tag{Content: Table, Update: true}); got != dss.ClassWriteBuffer {
		t.Errorf("update -> %v, want write buffer", got)
	}
	if got := a.TrimClass(); got != space.Eviction() {
		t.Errorf("trim -> %v, want %v (N)", got, space.Eviction())
	}
	// Random requests land in [n1, n2].
	got := a.Classify(Tag{Content: Index, Pattern: Random, Level: 0})
	if int(got) < space.RandLow || int(got) > space.RandHigh {
		t.Errorf("random -> %v, outside [%d,%d]", got, space.RandLow, space.RandHigh)
	}
}

func TestRegistryRule5(t *testing.T) {
	r := NewRegistry()
	oid := pagestore.ObjectID(42)

	// Query A accesses oid at level 2; its plan spans levels [0, 4].
	qa := QueryInfo{Levels: map[pagestore.ObjectID][]int{oid: {2}}, LLow: 0, LHigh: 4, HasRandom: true}
	// Query B accesses oid at level 1; plan spans [1, 3].
	qb := QueryInfo{Levels: map[pagestore.ObjectID][]int{oid: {1}}, LLow: 1, LHigh: 3, HasRandom: true}

	r.Register(qa)
	if min, ok := r.MinLevel(oid); !ok || min != 2 {
		t.Fatalf("min level %d %v", min, ok)
	}
	r.Register(qb)
	// Rule 5: the object gets the highest priority = the lowest level.
	if min, ok := r.MinLevel(oid); !ok || min != 1 {
		t.Fatalf("min level with B %d %v, want 1", min, ok)
	}
	gl, gh := r.Bounds()
	if gl != 0 || gh != 4 {
		t.Fatalf("bounds (%d,%d), want (0,4)", gl, gh)
	}
	if r.ActiveQueries() != 2 {
		t.Fatalf("active %d", r.ActiveQueries())
	}

	r.Unregister(qa)
	if min, _ := r.MinLevel(oid); min != 1 {
		t.Fatalf("min after A leaves %d, want 1", min)
	}
	gl, gh = r.Bounds()
	if gl != 1 || gh != 3 {
		t.Fatalf("bounds after A leaves (%d,%d)", gl, gh)
	}
	r.Unregister(qb)
	if _, ok := r.MinLevel(oid); ok {
		t.Fatal("object still registered after all queries left")
	}
	if r.ActiveQueries() != 0 {
		t.Fatal("active queries remain")
	}
}

func TestRegistryDuplicateLevels(t *testing.T) {
	r := NewRegistry()
	oid := pagestore.ObjectID(7)
	q := QueryInfo{Levels: map[pagestore.ObjectID][]int{oid: {3, 3, 5}}, LLow: 3, LHigh: 5, HasRandom: true}
	r.Register(q)
	r.Register(q) // a second identical query
	if min, _ := r.MinLevel(oid); min != 3 {
		t.Fatalf("min %d", min)
	}
	r.Unregister(q)
	if min, ok := r.MinLevel(oid); !ok || min != 3 {
		t.Fatalf("one copy should remain: %d %v", min, ok)
	}
	r.Unregister(q)
	if _, ok := r.MinLevel(oid); ok {
		t.Fatal("registry leaks")
	}
}

func TestRegistryIgnoresNonRandomQueries(t *testing.T) {
	r := NewRegistry()
	r.Register(QueryInfo{HasRandom: false, LLow: 9, LHigh: 9})
	if gl, gh := r.Bounds(); gl != 0 || gh != 0 {
		t.Fatalf("bounds moved by non-random query: (%d,%d)", gl, gh)
	}
}

func TestClassifyUsesRegistry(t *testing.T) {
	a := NewAssignmentTable(dss.DefaultPolicySpace())
	oid := pagestore.ObjectID(9)

	// Concurrent query accesses oid at level 0 while plans span [0, 3].
	a.Registry.Register(QueryInfo{
		Levels: map[pagestore.ObjectID][]int{oid: {0}}, LLow: 0, LHigh: 3, HasRandom: true,
	})
	// This request's own operator sits at level 3, but Rule 5 gives the
	// object the level-0 priority.
	got := a.Classify(Tag{Object: oid, Content: Table, Pattern: Random, Level: 3})
	if got != dss.Class(a.Space.RandLow) {
		t.Fatalf("rule 5 priority %v, want %d", got, a.Space.RandLow)
	}

	// With Rule 5 disabled the request falls back to its own level.
	a.Ablation = NoRule5
	got = a.Classify(Tag{Object: oid, Content: Table, Pattern: Random, Level: 3})
	if got == dss.Class(a.Space.RandLow) {
		t.Fatalf("rule 5 disabled but still using registry: %v", got)
	}
}

func TestStringers(t *testing.T) {
	if Table.String() != "table" || Index.String() != "index" || Temp.String() != "temp" {
		t.Fatal("content type strings")
	}
	if Sequential.String() != "sequential" || Random.String() != "random" {
		t.Fatal("pattern strings")
	}
	if len(RequestTypes()) != 5 {
		t.Fatal("request type list")
	}
}

// TestMaintenanceClasses pins the classes the storage manager attaches
// to backend maintenance I/O, and the compaction-class ablation:
// stripped of its dedicated band, compaction traffic degrades to the
// write-buffer class and competes with real updates for cache space.
func TestMaintenanceClasses(t *testing.T) {
	for _, c := range []struct {
		abl       Ablation
		want      dss.Class
		nonCached bool
	}{
		{NoAblation, dss.ClassCompaction, true},
		// Ablated, compaction must pollute the write buffer, i.e. be
		// cacheable.
		{NoCompactionClass, dss.ClassWriteBuffer, false},
	} {
		a := NewAssignmentTable(dss.DefaultPolicySpace())
		a.Ablation = c.abl
		if got := a.CompactionClass(); got != c.want {
			t.Errorf("ablation %d: CompactionClass = %v, want %v", c.abl, got, c.want)
		}
		if got := a.Space.NonCaching(a.CompactionClass()); got != c.nonCached {
			t.Errorf("ablation %d: compaction class non-caching = %v, want %v", c.abl, got, c.nonCached)
		}
		if got := a.MetaClass(); got != a.Space.Temporary() {
			t.Errorf("ablation %d: MetaClass = %v, want the pinned temporary priority", c.abl, got)
		}
		if a.Space.NonCaching(a.MetaClass()) {
			t.Errorf("ablation %d: structure blocks must be cacheable", c.abl)
		}
		if got := a.TrimClass(); got != a.Space.Eviction() {
			t.Errorf("ablation %d: TrimClass = %v", c.abl, got)
		}
	}
}
