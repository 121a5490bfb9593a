package relstore

import (
	"reflect"
	"strings"
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
	badType := Schema{Name: "X", Columns: []Column{{Name: "a", Type: TBool + 1}}}
	if err := badType.Validate(); err == nil {
		t.Error("unknown column type should fail")
	}
}

// TestInsertAndTypeChecking: NewTable checks every row's arity and
// column types, and the key column's type.
func TestInsertAndTypeChecking(t *testing.T) {
	good := Row{"Ritz", int64(200), 450.0, true}
	tbl, err := NewTable(hotelSchema(), []Row{good})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 1 {
		t.Errorf("Len = %d", tbl.Len())
	}
	for name, r := range map[string]Row{
		"short row":      {"Ritz"},
		"type mismatch":  {"Ritz", "not-an-int", 450.0, true},
		"plain int":      {"Ritz", 200, 450.0, true}, // the codec round-trips int64
		"non-string key": {int64(7), int64(200), 450.0, true},
		"NULL key":       {nil, int64(200), 450.0, true},
	} {
		if _, err := NewTable(hotelSchema(), []Row{r}); err == nil {
			t.Errorf("%s should fail", name)
		}
	}
	// NULLs are allowed outside the key.
	if _, err := NewTable(hotelSchema(), []Row{{"Savoy", nil, nil, nil}}); err != nil {
		t.Errorf("nil values should be allowed: %v", err)
	}
	intKey := hotelSchema()
	intKey.Columns[0].Type = TInt
	if _, err := NewTable(intKey, nil); err == nil {
		t.Error("a non-string key column should fail")
	}
	keyless := hotelSchema()
	keyless.Key = ""
	if _, err := NewTable(keyless, nil); err == nil {
		t.Error("a keyless schema should fail")
	}
}

// TestInsertCopiesRow: the table owns copies of its rows, so a caller
// reusing its row slices cannot change the table.
func TestInsertCopiesRow(t *testing.T) {
	r := Row{"Ritz", int64(1), 1.0, true}
	tbl, err := NewTable(hotelSchema(), []Row{r})
	if err != nil {
		t.Fatal(err)
	}
	r[0] = "Mutated"
	if i, ok := tbl.Find("Ritz"); !ok || tbl.Row(i)[0] != "Ritz" {
		t.Fatal("row changed by caller mutation")
	}
}

// TestKeys: the ids are the key column, ascending; NewTable refuses
// keys out of order and duplicates.
func TestKeys(t *testing.T) {
	row := func(id string) Row { return Row{id, int64(1), 1.0, true} }
	tbl, err := NewTable(hotelSchema(), []Row{row("alpha"), row("mid"), row("zeta")})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := tbl.IDs(), []string{"alpha", "mid", "zeta"}; !reflect.DeepEqual(got, want) {
		t.Errorf("IDs = %v, want %v", got, want)
	}
	for i, id := range tbl.IDs() {
		if tbl.Row(i)[0] != id {
			t.Errorf("row %d is %v, want id %s", i, tbl.Row(i), id)
		}
	}
	for name, c := range map[string]struct {
		rows []Row
		want string
	}{
		"unsorted":  {[]Row{row("zeta"), row("alpha")}, `key "alpha" follows "zeta"`},
		"duplicate": {[]Row{row("alpha"), row("mid"), row("mid")}, `duplicate key "mid"`},
	} {
		if _, err := NewTable(hotelSchema(), c.rows); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error containing %s", name, err, c.want)
		}
	}
	empty, err := NewTable(hotelSchema(), nil)
	if err != nil || empty.Len() != 0 || len(empty.IDs()) != 0 {
		t.Errorf("empty table: %v, %d rows", err, empty.Len())
	}
}

// TestColumn: a column name resolves to its position and type once; an
// unknown one is an error.
func TestColumn(t *testing.T) {
	tbl, _ := NewTable(hotelSchema(), []Row{{"Ritz", int64(200), 450.0, true}})
	i, ty, err := tbl.Column("price_pn")
	if err != nil || i != 2 || ty != TFloat || tbl.Row(0)[i] != 450.0 {
		t.Errorf("Column(price_pn) = %d, %v, %v", i, ty, err)
	}
	if _, _, err := tbl.Column("nope"); err == nil || err.Error() != "relstore: Hotels has no column nope" {
		t.Errorf("unknown column: %v", err)
	}
}

// TestSaveLoadRoundTrip: a table rebuilt from another's schema and rows —
// what a snapshot decode, a shard split and a shard merge do — is equal
// to it.
func TestSaveLoadRoundTrip(t *testing.T) {
	rows := []Row{
		{"Ritz", int64(200), 450.0, true},
		{"Savoy", int64(150), 380.5, false},
	}
	tbl, err := NewTable(hotelSchema(), rows)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := NewTable(tbl.Schema(), allRows(tbl))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded, tbl) {
		t.Errorf("round trip mismatch: %+v, want %+v", loaded, tbl)
	}
	if i, ok := loaded.Find("Savoy"); !ok || !reflect.DeepEqual(loaded.Row(i), rows[1]) {
		t.Errorf("Find(Savoy) = %d, %v", i, ok)
	}
}

func TestTypeString(t *testing.T) {
	for ty, want := range map[Type]string{TString: "string", TInt: "int", TFloat: "float", TBool: "bool", TBool + 1: "Type(4)"} {
		if ty.String() != want {
			t.Errorf("%v.String() = %q", int(ty), ty.String())
		}
	}
}
