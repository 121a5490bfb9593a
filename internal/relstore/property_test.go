package relstore

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// Property: ByKey(k) returns exactly the rows a full-scan selection of
// key == k returns, in insertion order.
func TestByKeyMatchesSelect(t *testing.T) {
	f := func(keys []uint8) bool {
		tbl, err := NewTable(Schema{
			Name:    "P",
			Columns: []Column{{Name: "k", Type: relTString()}, {Name: "seq", Type: TInt}},
			Key:     "k",
		})
		if err != nil {
			return false
		}
		for i, k := range keys {
			key := fmt.Sprintf("k%d", k%5) // force collisions
			if err := tbl.Insert(Row{key, int64(i)}); err != nil {
				return false
			}
		}
		for kv := 0; kv < 5; kv++ {
			key := fmt.Sprintf("k%d", kv)
			byKey := tbl.ByKey(key)
			scanned := selectRows(tbl, func(r Row) bool { return r[0] == key })
			if len(byKey) != len(scanned) {
				return false
			}
			for i := range byKey {
				if byKey[i][1] != scanned[i][1] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func relTString() Type { return TString }

// selectRows is the full-scan reference selection: every row satisfying
// pred, in insertion order.
func selectRows(tbl *Table, pred func(Row) bool) []Row {
	var out []Row
	tbl.Scan(func(r Row) bool {
		if pred(r) {
			out = append(out, r)
		}
		return true
	})
	return out
}

// Property: Len equals inserted row count for arbitrary insert sequences.
func TestLenMatchesInserts(t *testing.T) {
	f := func(n uint8) bool {
		tbl, err := NewTable(Schema{
			Name:    "L",
			Columns: []Column{{Name: "x", Type: TInt}},
		})
		if err != nil {
			return false
		}
		for i := 0; i < int(n); i++ {
			if err := tbl.Insert(Row{int64(i)}); err != nil {
				return false
			}
		}
		return tbl.Len() == int(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: saving a DB through State and loading it back through
// FromState (the seam the snapshot codec persists) round-trips arbitrary
// typed rows exactly and rebuilds the key index.
func TestSaveLoadRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		db := NewDB()
		tbl, err := db.Create(Schema{
			Name: "T",
			Columns: []Column{
				{Name: "id", Type: TString},
				{Name: "n", Type: TInt},
				{Name: "f", Type: TFloat},
				{Name: "b", Type: TBool},
			},
			Key: "id",
		})
		if err != nil {
			t.Fatal(err)
		}
		n := 1 + rng.Intn(40)
		for i := 0; i < n; i++ {
			row := Row{fmt.Sprintf("id%03d", i), int64(rng.Intn(1000)), rng.NormFloat64(), rng.Intn(2) == 0}
			if rng.Intn(10) == 0 {
				row[2] = nil // NULLs survive too
			}
			if err := tbl.Insert(row); err != nil {
				t.Fatal(err)
			}
		}
		loaded, err := FromState(db.State())
		if err != nil {
			t.Fatal(err)
		}
		lt, err := loaded.Table("T")
		if err != nil {
			t.Fatal(err)
		}
		if lt.Len() != n {
			t.Fatalf("trial %d: %d rows, want %d", trial, lt.Len(), n)
		}
		all := func(Row) bool { return true }
		orig, got := selectRows(tbl, all), selectRows(lt, all)
		for i := range orig {
			if !reflect.DeepEqual(orig[i], got[i]) {
				t.Fatalf("trial %d row %d: %v != %v", trial, i, got[i], orig[i])
			}
			if byKey := lt.ByKey(orig[i][0]); len(byKey) != 1 || !reflect.DeepEqual(byKey[0], orig[i]) {
				t.Fatalf("trial %d: key index not rebuilt for %v: %v", trial, orig[i][0], byKey)
			}
		}
	}
}
