// Package relstore holds OpineDB's objective relation: one immutable,
// typed table whose rows are sorted by a unique string key. The paper
// keeps objective attributes in an ordinary relation next to the
// subjective ones; here that relation is the only relational state (the
// subjective data lives in marker summaries and the extraction list), so
// it is built once — by the construction pipeline, a snapshot decode, a
// shard split or a shard merge — validated on the way in and never
// written again. Readers need no lock: row i belongs to the i-th smallest
// key, columns are resolved to positions once, and a key lookup is a
// binary search.
package relstore

import (
	"fmt"
	"sort"
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
		if c.Type < TString || c.Type > TBool {
			return fmt.Errorf("relstore: schema %s column %s has unknown type %v", s.Name, c.Name, c.Type)
		}
		seen[c.Name] = true
	}
	if s.Key != "" && s.colIndex(s.Key) < 0 {
		return fmt.Errorf("relstore: schema %s key %s is not a column", s.Name, s.Key)
	}
	return nil
}

// EntitiesName and EntityKey name OpineDB's one relation and its key
// column; the snapshot decoder accepts no other table.
const (
	EntitiesName = "Entities"
	EntityKey    = "id"
)

// Row is one tuple, ordered as the schema's columns.
type Row []interface{}

// Table is an immutable relation: a keyed schema and its rows in
// ascending key order. Nothing mutates a Table after NewTable returns, so
// any number of goroutines may read it.
type Table struct {
	schema Schema
	rows   []Row
	ids    []string // ids[i] is rows[i]'s key
}

// NewTable validates the schema and every row and returns the table. The
// schema needs a string key column; every row must match the schema's
// arity and column types (nil is NULL, allowed except in the key), and
// the keys must be unique and ascending. The rows are copied, so the
// caller keeps ownership of its slices.
func NewTable(schema Schema, rows []Row) (*Table, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	key := schema.colIndex(schema.Key)
	if key < 0 {
		return nil, fmt.Errorf("relstore: schema %s has no key", schema.Name)
	}
	if ty := schema.Columns[key].Type; ty != TString {
		return nil, fmt.Errorf("relstore: %s: key %s is %s, want string", schema.Name, schema.Key, ty)
	}
	ncols := len(schema.Columns)
	t := &Table{schema: schema, rows: make([]Row, len(rows)), ids: make([]string, len(rows))}
	slab := make([]interface{}, len(rows)*ncols)
	for i, r := range rows {
		if err := checkRow(&schema, r); err != nil {
			return nil, err
		}
		id, ok := r[key].(string)
		switch {
		case !ok:
			return nil, fmt.Errorf("relstore: %s: row %d has a NULL key", schema.Name, i)
		case i > 0 && id == t.ids[i-1]:
			return nil, fmt.Errorf("relstore: %s: duplicate key %q", schema.Name, id)
		case i > 0 && id < t.ids[i-1]:
			return nil, fmt.Errorf("relstore: %s: key %q follows %q, want ascending keys", schema.Name, id, t.ids[i-1])
		}
		t.rows[i] = slab[i*ncols : (i+1)*ncols : (i+1)*ncols]
		copy(t.rows[i], r)
		t.ids[i] = id
	}
	return t, nil
}

// checkRow validates arity and column types.
func checkRow(s *Schema, r Row) error {
	if len(r) != len(s.Columns) {
		return fmt.Errorf("relstore: %s: row arity %d, want %d", s.Name, len(r), len(s.Columns))
	}
	for i, c := range s.Columns {
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
			return fmt.Errorf("relstore: %s: column %s expects %s, got %T", s.Name, c.Name, c.Type, r[i])
		}
	}
	return nil
}

// Schema returns the table's schema.
func (t *Table) Schema() Schema { return t.schema }

// Len returns the number of rows.
func (t *Table) Len() int { return len(t.rows) }

// Row returns row i, the row of the i-th smallest key. The caller must
// not modify it.
func (t *Table) Row(i int) Row { return t.rows[i] }

// IDs returns the keys in ascending order, parallel to the rows. The
// caller must not modify the returned slice.
func (t *Table) IDs() []string { return t.ids }

// Find returns the position of the row keyed id, by binary search.
func (t *Table) Find(id string) (int, bool) {
	i := sort.SearchStrings(t.ids, id)
	return i, i < len(t.ids) && t.ids[i] == id
}

// Column returns the position and type of the named column, or an error
// for an unknown column.
func (t *Table) Column(name string) (int, Type, error) {
	i := t.schema.colIndex(name)
	if i < 0 {
		return 0, 0, fmt.Errorf("relstore: %s has no column %s", t.schema.Name, name)
	}
	return i, t.schema.Columns[i].Type, nil
}
