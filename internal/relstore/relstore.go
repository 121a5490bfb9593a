// Package relstore is the relational storage substrate underneath OpineDB.
// The paper implements its query engine "on top of PostgreSQL", storing the
// extraction results in relations and computing subjective predicates as
// user-defined aggregates; relstore provides the same capabilities in
// process: typed schemas, tables with a hash index on the key, scans, and
// an exported state seam that the snapshot codec persists.
package relstore

import (
	"fmt"
	"sort"
	"sync"
)

// Type enumerates column types.
type Type int

const (
	// TString is a UTF-8 string column.
	TString Type = iota
	// TInt is an int64 column.
	TInt
	// TFloat is a float64 column.
	TFloat
	// TBool is a boolean column.
	TBool
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case TString:
		return "string"
	case TInt:
		return "int"
	case TFloat:
		return "float"
	case TBool:
		return "bool"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// Column describes one attribute of a relation.
type Column struct {
	Name string
	Type Type
}

// Schema describes a relation: its name, columns, and which column is the
// key. Following the paper's data model, every relation has a single-column
// key.
type Schema struct {
	Name    string
	Columns []Column
	Key     string // name of the key column
}

// colIndex returns the position of the named column, or -1.
func (s *Schema) colIndex(name string) int {
	for i, c := range s.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Validate checks internal consistency.
func (s *Schema) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("relstore: schema has no name")
	}
	if len(s.Columns) == 0 {
		return fmt.Errorf("relstore: schema %s has no columns", s.Name)
	}
	seen := map[string]bool{}
	for _, c := range s.Columns {
		if seen[c.Name] {
			return fmt.Errorf("relstore: schema %s has duplicate column %s", s.Name, c.Name)
		}
		seen[c.Name] = true
	}
	if s.Key != "" && s.colIndex(s.Key) < 0 {
		return fmt.Errorf("relstore: schema %s key %s is not a column", s.Name, s.Key)
	}
	return nil
}

// Row is one tuple, ordered as the schema's columns.
type Row []interface{}

// Table is a relation instance. Access is goroutine-safe for concurrent
// reads with exclusive writes.
type Table struct {
	mu     sync.RWMutex
	schema Schema
	rows   []Row
	// keyIdx maps key value → row positions (non-unique: subjective
	// relations hold one row per (entity, extraction)).
	keyIdx map[interface{}][]int
}

// NewTable creates an empty table for the schema.
func NewTable(schema Schema) (*Table, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	return &Table{schema: schema, keyIdx: make(map[interface{}][]int)}, nil
}

// Schema returns a copy of the table's schema.
func (t *Table) Schema() Schema { return t.schema }

// Len returns the number of rows.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.rows)
}

// checkRow validates arity and column types.
func (t *Table) checkRow(r Row) error {
	if len(r) != len(t.schema.Columns) {
		return fmt.Errorf("relstore: %s: row arity %d, want %d", t.schema.Name, len(r), len(t.schema.Columns))
	}
	for i, c := range t.schema.Columns {
		if r[i] == nil {
			continue // NULL allowed
		}
		ok := false
		switch c.Type {
		case TString:
			_, ok = r[i].(string)
		case TInt:
			_, ok = r[i].(int64)
		case TFloat:
			_, ok = r[i].(float64)
		case TBool:
			_, ok = r[i].(bool)
		}
		if !ok {
			return fmt.Errorf("relstore: %s: column %s expects %s, got %T",
				t.schema.Name, c.Name, c.Type, r[i])
		}
	}
	return nil
}

// Insert appends a row after validating it against the schema.
func (t *Table) Insert(r Row) error {
	if err := t.checkRow(r); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	pos := len(t.rows)
	cp := make(Row, len(r))
	copy(cp, r)
	t.rows = append(t.rows, cp)
	if t.schema.Key != "" {
		k := cp[t.schema.colIndex(t.schema.Key)]
		t.keyIdx[k] = append(t.keyIdx[k], pos)
	}
	return nil
}

// Get returns the value of column col in row r, or an error for an unknown
// column.
func (t *Table) Get(r Row, col string) (interface{}, error) {
	i := t.schema.colIndex(col)
	if i < 0 {
		return nil, fmt.Errorf("relstore: %s has no column %s", t.schema.Name, col)
	}
	return r[i], nil
}

// MustGet is Get for known-valid columns; it panics on unknown columns and
// is intended for internal query plans compiled against the schema.
func (t *Table) MustGet(r Row, col string) interface{} {
	v, err := t.Get(r, col)
	if err != nil {
		panic(err)
	}
	return v
}

// ByKey returns all rows whose key equals k (using the hash index).
func (t *Table) ByKey(k interface{}) []Row {
	t.mu.RLock()
	defer t.mu.RUnlock()
	positions := t.keyIdx[k]
	out := make([]Row, 0, len(positions))
	for _, p := range positions {
		out = append(out, t.rows[p])
	}
	return out
}

// FirstByKey returns the first row whose key equals k, or nil. Unlike ByKey
// it copies no match list, so a lookup on a unique key does not allocate.
func (t *Table) FirstByKey(k interface{}) Row {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if positions := t.keyIdx[k]; len(positions) > 0 {
		return t.rows[positions[0]]
	}
	return nil
}

// Scan invokes fn on every row; fn returning false stops the scan.
func (t *Table) Scan(fn func(Row) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, r := range t.rows {
		if !fn(r) {
			return
		}
	}
}

// Keys returns the distinct key values in sorted order (string keys) or
// insertion order otherwise. It returns nil for keyless tables.
func (t *Table) Keys() []interface{} {
	if t.schema.Key == "" {
		return nil
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]interface{}, 0, len(t.keyIdx))
	allStrings := true
	for k := range t.keyIdx {
		if _, ok := k.(string); !ok {
			allStrings = false
		}
		out = append(out, k)
	}
	if allStrings {
		sort.Slice(out, func(i, j int) bool { return out[i].(string) < out[j].(string) })
	}
	return out
}

// DB is a named collection of tables.
type DB struct {
	mu     sync.RWMutex
	tables map[string]*Table
}

// NewDB returns an empty database.
func NewDB() *DB { return &DB{tables: make(map[string]*Table)} }

// Create adds a new empty table; it errors if the name exists.
func (db *DB) Create(schema Schema) (*Table, error) {
	t, err := NewTable(schema)
	if err != nil {
		return nil, err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, exists := db.tables[schema.Name]; exists {
		return nil, fmt.Errorf("relstore: table %s already exists", schema.Name)
	}
	db.tables[schema.Name] = t
	return t, nil
}

// Table returns the named table or an error.
func (db *DB) Table(name string) (*Table, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[name]
	if !ok {
		return nil, fmt.Errorf("relstore: no table %s", name)
	}
	return t, nil
}

// Names returns the sorted table names.
func (db *DB) Names() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.namesLocked()
}

// DBState is the exported serialization seam for a relational DB: every
// table's schema (in sorted name order) and rows (in insertion order).
// Row values are the basic column types (string, int64, float64, bool).
// State copies row slices (not the rows themselves), so a state taken
// under State's locks stays consistent if the live DB keeps inserting.
type DBState struct {
	Schemas []Schema
	Rows    map[string][]Row
}

// State exports the database for serialization.
func (db *DB) State() DBState {
	db.mu.RLock()
	defer db.mu.RUnlock()
	st := DBState{Rows: make(map[string][]Row)}
	for _, name := range db.namesLocked() {
		t := db.tables[name]
		t.mu.RLock()
		st.Schemas = append(st.Schemas, t.schema)
		st.Rows[name] = append([]Row(nil), t.rows...)
		t.mu.RUnlock()
	}
	return st
}

// FromState reconstructs a database from exported state, re-validating
// every schema and row exactly as the original inserts did.
func FromState(st DBState) (*DB, error) {
	db := NewDB()
	for _, schema := range st.Schemas {
		t, err := db.Create(schema)
		if err != nil {
			return nil, err
		}
		for _, r := range st.Rows[schema.Name] {
			if err := t.Insert(r); err != nil {
				return nil, err
			}
		}
	}
	return db, nil
}

func (db *DB) namesLocked() []string {
	out := make([]string, 0, len(db.tables))
	for n := range db.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
