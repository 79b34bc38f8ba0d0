// Package catalog holds the schema layer of the engine: column types,
// tuple values, table and index descriptors, and object-ID assignment
// (including the reserved range for temporary files).
package catalog

import (
	"fmt"
	"sort"
	"sync"

	"hstoragedb/internal/pagestore"
)

// ColType enumerates the column types the engine supports — the subset
// TPC-H needs.
type ColType int

const (
	// Int64 is a 64-bit integer (also used for keys and identifiers).
	Int64 ColType = iota
	// Float64 is a double-precision decimal (prices, discounts).
	Float64
	// String is a variable-length string (up to a page).
	String
	// Date is a day number (days since 1970-01-01), stored like Int64
	// but kept distinct for schema readability.
	Date
)

// String implements fmt.Stringer.
func (t ColType) String() string {
	switch t {
	case Int64:
		return "int64"
	case Float64:
		return "float64"
	case String:
		return "string"
	case Date:
		return "date"
	}
	return fmt.Sprintf("coltype(%d)", int(t))
}

// Column is one schema column.
type Column struct {
	Name string
	Type ColType
}

// Schema is an ordered list of columns.
type Schema struct {
	Cols []Column
}

// NewSchema builds a schema from (name, type) pairs.
func NewSchema(cols ...Column) Schema { return Schema{Cols: cols} }

// Col returns the index of the named column, or -1.
func (s Schema) Col(name string) int {
	for i, c := range s.Cols {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// MustCol is Col but panics on a missing column; schema lookups in query
// construction are programming errors, not runtime conditions.
func (s Schema) MustCol(name string) int {
	i := s.Col(name)
	if i < 0 {
		panic(fmt.Sprintf("catalog: schema has no column %q", name))
	}
	return i
}

// Datum is one column value. The active field is determined by the
// schema's column type (String for String; F for Float64; I otherwise).
type Datum struct {
	I int64
	F float64
	S string
}

// IntDatum, FloatDatum and StringDatum are convenience constructors.
func IntDatum(v int64) Datum     { return Datum{I: v} }
func FloatDatum(v float64) Datum { return Datum{F: v} }
func StringDatum(v string) Datum { return Datum{S: v} }

// Tuple is one row.
type Tuple []Datum

// Clone returns a deep-enough copy (Datum is a value type).
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// RID locates a tuple inside a heap file.
type RID struct {
	Page int64
	Slot uint16
}

// TableInfo describes a stored table.
type TableInfo struct {
	ID     pagestore.ObjectID
	Name   string
	Schema Schema
	Rows   int64
}

// IndexInfo describes a B+tree index over one Int64/Date column of a
// table.
type IndexInfo struct {
	ID      pagestore.ObjectID
	Name    string
	TableID pagestore.ObjectID
	KeyCol  int
}

// Catalog is the registry of tables and indexes. It is safe for
// concurrent use.
type Catalog struct {
	mu      sync.Mutex
	tables  map[string]*TableInfo
	indexes map[string]*IndexInfo
	byID    map[pagestore.ObjectID]string
	nextOID pagestore.ObjectID
	nextTmp pagestore.ObjectID
}

// New creates an empty catalog.
func New() *Catalog {
	return &Catalog{
		tables:  make(map[string]*TableInfo),
		indexes: make(map[string]*IndexInfo),
		byID:    make(map[pagestore.ObjectID]string),
		nextOID: 1,
		nextTmp: pagestore.TempBase,
	}
}

// AddTable registers a table and assigns it an object ID.
func (c *Catalog) AddTable(name string, schema Schema) (*TableInfo, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[name]; ok {
		return nil, fmt.Errorf("catalog: table %q already exists", name)
	}
	t := &TableInfo{ID: c.nextOID, Name: name, Schema: schema}
	c.nextOID++
	c.tables[name] = t
	c.byID[t.ID] = name
	return t, nil
}

// AddIndex registers an index over table's column keyCol.
func (c *Catalog) AddIndex(name, table string, keyCol int) (*IndexInfo, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.tables[table]
	if !ok {
		return nil, fmt.Errorf("catalog: index %q references unknown table %q", name, table)
	}
	if _, ok := c.indexes[name]; ok {
		return nil, fmt.Errorf("catalog: index %q already exists", name)
	}
	if keyCol < 0 || keyCol >= len(t.Schema.Cols) {
		return nil, fmt.Errorf("catalog: index %q key column %d out of range", name, keyCol)
	}
	ix := &IndexInfo{ID: c.nextOID, Name: name, TableID: t.ID, KeyCol: keyCol}
	c.nextOID++
	c.indexes[name] = ix
	c.byID[ix.ID] = name
	return ix, nil
}

// Table returns the named table's descriptor.
func (c *Catalog) Table(name string) (*TableInfo, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.tables[name]
	if !ok {
		return nil, fmt.Errorf("catalog: unknown table %q", name)
	}
	return t, nil
}

// MustTable is Table but panics; used by query constructors.
func (c *Catalog) MustTable(name string) *TableInfo {
	t, err := c.Table(name)
	if err != nil {
		panic(err)
	}
	return t
}

// Index returns the named index's descriptor.
func (c *Catalog) Index(name string) (*IndexInfo, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ix, ok := c.indexes[name]
	if !ok {
		return nil, fmt.Errorf("catalog: unknown index %q", name)
	}
	return ix, nil
}

// MustIndex is Index but panics; used by query constructors.
func (c *Catalog) MustIndex(name string) *IndexInfo {
	ix, err := c.Index(name)
	if err != nil {
		panic(err)
	}
	return ix
}

// IndexFor returns an index of the table keyed on keyCol, if one exists.
func (c *Catalog) IndexFor(tableID pagestore.ObjectID, keyCol int) (*IndexInfo, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, ix := range c.indexes {
		if ix.TableID == tableID && ix.KeyCol == keyCol {
			return ix, true
		}
	}
	return nil, false
}

// NameOf resolves an object ID to its catalog name (for reports); temp
// objects render as tmp<N>.
func (c *Catalog) NameOf(id pagestore.ObjectID) string {
	if id >= pagestore.TempBase {
		return fmt.Sprintf("tmp%d", id-pagestore.TempBase)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if n, ok := c.byID[id]; ok {
		return n
	}
	return fmt.Sprintf("obj%d", id)
}

// NewTempID allocates an object ID from the temporary range.
func (c *Catalog) NewTempID() pagestore.ObjectID {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := c.nextTmp
	c.nextTmp++
	return id
}

// IsTemp reports whether an object ID belongs to the temporary range.
func IsTemp(id pagestore.ObjectID) bool { return id >= pagestore.TempBase }

// Tables returns descriptors of all tables sorted by name.
func (c *Catalog) Tables() []*TableInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*TableInfo, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Indexes returns descriptors of all indexes sorted by name.
func (c *Catalog) Indexes() []*IndexInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*IndexInfo, 0, len(c.indexes))
	for _, ix := range c.indexes {
		out = append(out, ix)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// SetRows updates a table's row count (maintained by loads and RF1/RF2).
func (c *Catalog) SetRows(name string, rows int64) {
	c.mu.Lock()
	if t, ok := c.tables[name]; ok {
		t.Rows = rows
	}
	c.mu.Unlock()
}
