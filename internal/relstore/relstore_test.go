package relstore

import (
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

func hotelSchema() Schema {
	return Schema{
		Name: "Hotels",
		Columns: []Column{
			{Name: "hotelname", Type: TString},
			{Name: "capacity", Type: TInt},
			{Name: "price_pn", Type: TFloat},
			{Name: "open", Type: TBool},
		},
		Key: "hotelname",
	}
}

func TestSchemaValidate(t *testing.T) {
	s := hotelSchema()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Schema{Name: "", Columns: []Column{{Name: "a", Type: TString}}}
	if err := bad.Validate(); err == nil {
		t.Error("nameless schema should fail")
	}
	dup := Schema{Name: "X", Columns: []Column{{Name: "a"}, {Name: "a"}}}
	if err := dup.Validate(); err == nil {
		t.Error("duplicate column should fail")
	}
	noKey := Schema{Name: "X", Columns: []Column{{Name: "a"}}, Key: "b"}
	if err := noKey.Validate(); err == nil {
		t.Error("missing key column should fail")
	}
	empty := Schema{Name: "X"}
	if err := empty.Validate(); err == nil {
		t.Error("columnless schema should fail")
	}
}

func TestInsertAndTypeChecking(t *testing.T) {
	tbl, err := NewTable(hotelSchema())
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(Row{"Ritz", int64(200), 450.0, true}); err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 1 {
		t.Errorf("Len = %d", tbl.Len())
	}
	// Wrong arity.
	if err := tbl.Insert(Row{"Ritz"}); err == nil {
		t.Error("short row should fail")
	}
	// Wrong type.
	if err := tbl.Insert(Row{"Ritz", "not-an-int", 450.0, true}); err == nil {
		t.Error("type mismatch should fail")
	}
	// int (not int64) must be rejected: gob round-trips int64.
	if err := tbl.Insert(Row{"Ritz", 200, 450.0, true}); err == nil {
		t.Error("plain int should fail (require int64)")
	}
	// NULLs allowed.
	if err := tbl.Insert(Row{"Savoy", nil, nil, nil}); err != nil {
		t.Errorf("nil values should be allowed: %v", err)
	}
}

func TestInsertCopiesRow(t *testing.T) {
	tbl, _ := NewTable(hotelSchema())
	r := Row{"Ritz", int64(1), 1.0, true}
	if err := tbl.Insert(r); err != nil {
		t.Fatal(err)
	}
	r[0] = "Mutated"
	got := tbl.ByKey("Ritz")
	if len(got) != 1 {
		t.Fatal("row lost after caller mutation")
	}
}

func TestByKeyNonUnique(t *testing.T) {
	schema := Schema{
		Name:    "HRoomCleanliness",
		Columns: []Column{{Name: "hotelname", Type: TString}, {Name: "phrase", Type: TString}},
		Key:     "hotelname",
	}
	tbl, _ := NewTable(schema)
	for _, p := range []string{"very clean", "spotless", "dirty"} {
		if err := tbl.Insert(Row{"Ritz", p}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Insert(Row{"Savoy", "average"}); err != nil {
		t.Fatal(err)
	}
	if got := tbl.ByKey("Ritz"); len(got) != 3 {
		t.Errorf("ByKey(Ritz) = %d rows, want 3", len(got))
	}
	if got := tbl.ByKey("Unknown"); len(got) != 0 {
		t.Errorf("ByKey(Unknown) = %d rows", len(got))
	}
	// FirstByKey is ByKey(k)[0] without the copied match list.
	if got := tbl.FirstByKey("Ritz"); !reflect.DeepEqual(got, tbl.ByKey("Ritz")[0]) {
		t.Errorf("FirstByKey(Ritz) = %v, want the first inserted row", got)
	}
	if got := tbl.FirstByKey("Unknown"); got != nil {
		t.Errorf("FirstByKey(Unknown) = %v, want nil", got)
	}
	key := "Savoy"
	if allocs := testing.AllocsPerRun(100, func() { tbl.FirstByKey(key) }); allocs != 0 {
		t.Errorf("FirstByKey allocates %.0f times per lookup", allocs)
	}
}

func TestGetAndMustGet(t *testing.T) {
	tbl, _ := NewTable(hotelSchema())
	r := Row{"Ritz", int64(200), 450.0, true}
	v, err := tbl.Get(r, "price_pn")
	if err != nil || v != 450.0 {
		t.Errorf("Get = %v, %v", v, err)
	}
	if _, err := tbl.Get(r, "nope"); err == nil {
		t.Error("unknown column should error")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustGet should panic on unknown column")
		}
	}()
	tbl.MustGet(r, "nope")
}

func TestSelectAndScan(t *testing.T) {
	tbl, _ := NewTable(hotelSchema())
	prices := []float64{100, 200, 300}
	for i, p := range prices {
		name := string(rune('A' + i))
		if err := tbl.Insert(Row{name, int64(10), p, true}); err != nil {
			t.Fatal(err)
		}
	}
	cheap := tbl.Select(func(r Row) bool { return r[2].(float64) < 250 })
	if len(cheap) != 2 {
		t.Errorf("Select(<250) = %d rows", len(cheap))
	}
	all := tbl.Select(nil)
	if len(all) != 3 {
		t.Errorf("Select(nil) = %d rows", len(all))
	}
	// Early termination.
	count := 0
	tbl.Scan(func(Row) bool { count++; return count < 2 })
	if count != 2 {
		t.Errorf("Scan stopped after %d rows, want 2", count)
	}
}

func TestKeys(t *testing.T) {
	tbl, _ := NewTable(hotelSchema())
	for _, n := range []string{"zeta", "alpha", "mid", "alpha"} {
		if err := tbl.Insert(Row{n, int64(1), 1.0, true}); err != nil {
			t.Fatal(err)
		}
	}
	keys := tbl.Keys()
	want := []interface{}{"alpha", "mid", "zeta"}
	if !reflect.DeepEqual(keys, want) {
		t.Errorf("Keys = %v, want %v", keys, want)
	}
	noKey, _ := NewTable(Schema{Name: "K", Columns: []Column{{Name: "x", Type: TInt}}})
	if noKey.Keys() != nil {
		t.Error("keyless table should return nil Keys")
	}
}

func TestDBCreateAndLookup(t *testing.T) {
	db := NewDB()
	if _, err := db.Create(hotelSchema()); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Create(hotelSchema()); err == nil {
		t.Error("duplicate table should fail")
	}
	if _, err := db.Table("Hotels"); err != nil {
		t.Error(err)
	}
	if _, err := db.Table("Nope"); err == nil {
		t.Error("missing table should error")
	}
	if got := db.Names(); !reflect.DeepEqual(got, []string{"Hotels"}) {
		t.Errorf("Names = %v", got)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	db := NewDB()
	tbl, _ := db.Create(hotelSchema())
	rows := []Row{
		{"Ritz", int64(200), 450.0, true},
		{"Savoy", int64(150), 380.5, false},
	}
	for _, r := range rows {
		if err := tbl.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "db.gob")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	lt, err := loaded.Table("Hotels")
	if err != nil {
		t.Fatal(err)
	}
	if lt.Len() != 2 {
		t.Fatalf("loaded %d rows", lt.Len())
	}
	got := lt.ByKey("Savoy")
	if len(got) != 1 || !reflect.DeepEqual(got[0], rows[1]) {
		t.Errorf("round trip mismatch: %v", got)
	}
	// Index must be rebuilt.
	if len(lt.ByKey("Ritz")) != 1 {
		t.Error("key index not rebuilt on load")
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "absent.gob")); err == nil {
		t.Error("loading a missing file should error")
	}
}

func TestConcurrentReadersWithWriter(t *testing.T) {
	tbl, _ := NewTable(hotelSchema())
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			name := string(rune('A' + i%26))
			_ = tbl.Insert(Row{name, int64(i), float64(i), true})
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			tbl.Select(func(r Row) bool { return r[2].(float64) > 50 })
			tbl.ByKey("A")
			tbl.Len()
		}
	}()
	wg.Wait() // run with -race to validate locking
	if tbl.Len() != 100 {
		t.Errorf("Len = %d", tbl.Len())
	}
}

func TestTypeString(t *testing.T) {
	for ty, want := range map[Type]string{TString: "string", TInt: "int", TFloat: "float", TBool: "bool"} {
		if ty.String() != want {
			t.Errorf("%v.String() = %q", int(ty), ty.String())
		}
	}
}
