package relstore

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// keyedSchema is a two-column relation keyed by its string column k.
func keyedSchema() Schema {
	return Schema{
		Name:    "P",
		Columns: []Column{{Name: "k", Type: TString}, {Name: "seq", Type: TInt}},
		Key:     "k",
	}
}

// sortedRows returns one row per distinct key of keys, ascending.
func sortedRows(keys []uint8) []Row {
	present := map[uint8]bool{}
	for _, k := range keys {
		present[k] = true
	}
	var rows []Row
	for k := 0; k < 256; k++ {
		if present[uint8(k)] {
			rows = append(rows, Row{fmt.Sprintf("k%03d", k), int64(k)})
		}
	}
	return rows
}

// Property: Find(k) returns exactly the row a full-scan selection of
// key == k returns, and reports absent keys as absent.
func TestByKeyMatchesSelect(t *testing.T) {
	f := func(keys []uint8) bool {
		tbl, err := NewTable(keyedSchema(), sortedRows(keys))
		if err != nil {
			return false
		}
		for kv := 0; kv < 256; kv++ {
			key := fmt.Sprintf("k%03d", kv)
			scanned := selectRows(tbl, func(r Row) bool { return r[0] == key })
			i, ok := tbl.Find(key)
			if ok != (len(scanned) == 1) || ok && !reflect.DeepEqual(tbl.Row(i), scanned[0]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// selectRows is the full-scan reference selection: every row satisfying
// pred, in key order.
func selectRows(tbl *Table, pred func(Row) bool) []Row {
	var out []Row
	for _, r := range allRows(tbl) {
		if pred(r) {
			out = append(out, r)
		}
	}
	return out
}

// allRows returns the table's rows in key order.
func allRows(tbl *Table) []Row {
	out := make([]Row, tbl.Len())
	for i := range out {
		out[i] = tbl.Row(i)
	}
	return out
}

// Property: Len equals the number of rows the table was built from.
func TestLenMatchesInserts(t *testing.T) {
	f := func(keys []uint8) bool {
		rows := sortedRows(keys)
		tbl, err := NewTable(keyedSchema(), rows)
		return err == nil && tbl.Len() == len(rows) && len(tbl.IDs()) == len(rows)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: rebuilding a table from its schema and rows (the seam the
// snapshot codec, shard splits and shard merges use) round-trips
// arbitrary typed rows exactly, NULLs included.
func TestSaveLoadRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	schema := Schema{
		Name: "T",
		Columns: []Column{
			{Name: "id", Type: TString},
			{Name: "n", Type: TInt},
			{Name: "f", Type: TFloat},
			{Name: "b", Type: TBool},
		},
		Key: "id",
	}
	for trial := 0; trial < 10; trial++ {
		n := 1 + rng.Intn(40)
		rows := make([]Row, 0, n)
		for i := 0; i < n; i++ {
			row := Row{fmt.Sprintf("id%03d", i), int64(rng.Intn(1000)), rng.NormFloat64(), rng.Intn(2) == 0}
			if rng.Intn(10) == 0 {
				row[2] = nil // NULLs survive too
			}
			rows = append(rows, row)
		}
		tbl, err := NewTable(schema, rows)
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := NewTable(tbl.Schema(), allRows(tbl))
		if err != nil {
			t.Fatal(err)
		}
		if loaded.Len() != n {
			t.Fatalf("trial %d: %d rows, want %d", trial, loaded.Len(), n)
		}
		for i, want := range rows {
			if got := loaded.Row(i); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d row %d: %v != %v", trial, i, got, want)
			}
			if j, ok := loaded.Find(want[0].(string)); !ok || j != i {
				t.Fatalf("trial %d: Find(%v) = %d, %v", trial, want[0], j, ok)
			}
		}
	}
}
