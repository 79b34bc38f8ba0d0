package exec

import (
	"reflect"
	"testing"

	"hstoragedb/internal/engine/catalog"
	"hstoragedb/internal/pagestore"
)

// TestOperatorDeclarations lists every operator type with the facts the
// level computation reads from it: whether it blocks (Section 4.2.2's
// level recalculation) and which storage objects it reads directly
// (Rule 5's registry). A new operator joins this table; a blocking one
// that forgets to say so fails here.
func TestOperatorDeclarations(t *testing.T) {
	const tableID, indexID pagestore.ObjectID = 10, 11
	tbl := &TableHandle{Info: &catalog.TableInfo{ID: tableID}}
	idx := &catalog.IndexInfo{ID: indexID, TableID: tableID}
	seq := &AccessInfo{Objects: []pagestore.ObjectID{tableID}}
	random := &AccessInfo{Objects: []pagestore.ObjectID{indexID, tableID}, Random: true}

	cases := []struct {
		op       Operator
		blocking bool
		access   *AccessInfo // nil: reads no storage object directly
	}{
		{&SeqScan{Table: tbl}, false, seq},
		{&IndexScan{Index: idx, Table: tbl}, false, random},
		{&IndexProbe{Index: idx, Table: tbl}, false, random},
		{&NestLoop{}, false, nil},
		{&Hash{}, true, nil},
		{&HashJoin{}, false, nil},
		{&HashAgg{}, true, nil},
		{&Sort{}, true, nil},
		{&TopN{}, true, nil},
		{&Filter{}, false, nil},
		{&Project{}, false, nil},
		{&Limit{}, false, nil},
		{&Values{}, false, nil},
	}
	if len(cases) != 13 {
		t.Fatalf("%d operator types listed, want 13", len(cases))
	}
	for _, c := range cases {
		name := reflect.TypeOf(c.op).Elem().Name()
		if got := blocks(c.op); got != c.blocking {
			t.Errorf("%s: blocking = %v, want %v", name, got, c.blocking)
		}
		ai, ok := access(c.op)
		if ok != (c.access != nil) {
			t.Errorf("%s: reads storage = %v, want %v", name, ok, c.access != nil)
			continue
		}
		if ok && !reflect.DeepEqual(ai, *c.access) {
			t.Errorf("%s: access = %+v, want %+v", name, ai, *c.access)
		}
	}
}
