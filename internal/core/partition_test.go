package core_test

// The partitioned extraction relation: a node holds full rows only for the
// entities it serves, plus the review → (attribute, marker) table of every
// review. FromState refuses any state whose pieces disagree about that
// layout, and a rebuild from the rows reproduces the node's summaries.

import (
	"errors"
	"maps"
	"math"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/embedding"
	"repro/internal/extract"
	"repro/internal/snapshot"
)

// components returns the subsystems FromState rejoins with db's state.
func components(t *testing.T, db *core.DB) core.Components {
	t.Helper()
	tagger, ok := db.Extractor.Tagger.(*extract.PerceptronTagger)
	if !ok {
		t.Fatalf("tagger %T", db.Extractor.Tagger)
	}
	return core.Components{Rel: db.Rel, Embed: db.Embed, ReviewIndex: db.ReviewIndex, EntityIndex: db.EntityIndex, Tagger: tagger}
}

// craft returns db's state with every piece a case may edit copied, then
// edited by fn.
func craft(db *core.DB, fn func(st *core.DBState)) *core.DBState {
	st := *db.State()
	st.Extractions = slices.Clone(st.Extractions)
	st.OpStart = slices.Clone(st.OpStart)
	st.Ops = slices.Clone(st.Ops)
	st.ReviewSentiments = maps.Clone(st.ReviewSentiments)
	st.Summaries = maps.Clone(st.Summaries)
	for attr, byEntity := range st.Summaries {
		st.Summaries[attr] = maps.Clone(byEntity)
	}
	fn(&st)
	return &st
}

// TestFromStateAcceptsOnlyAPartitionedImage: a state whose review index,
// review sentiments, review → opinion table, extraction rows and summaries
// disagree is refused with a *core.StateError naming the piece at fault —
// never loaded to panic or mislead later in /evidence, the scan path or
// co-occurrence mining.
func TestFromStateAcceptsOnlyAPartitionedImage(t *testing.T) {
	_, db := testDB(t)
	ids := db.EntityIDs()
	shard, err := db.ShardDB(func(id string) bool { return id < ids[len(ids)/2] })
	if err != nil {
		t.Fatal(err)
	}
	foreign := ids[len(ids)-1]
	rows := db.State().Extractions
	if len(rows) != db.ExtractionCount() {
		t.Fatalf("the monolith holds %d rows of %d extractions", len(rows), db.ExtractionCount())
	}
	var foreignRow *core.Extraction
	for i := range rows {
		if rows[i].EntityID == foreign {
			foreignRow = &rows[i]
			break
		}
	}
	var foreignAttr string
	var foreignSummary *core.MarkerSummary
	for _, a := range db.Attrs {
		if s := db.Summary(a.Name, foreign); s != nil {
			foreignAttr, foreignSummary = a.Name, s
			break
		}
	}
	multi := -1 // a row whose attribute has more than one marker
	for i, x := range rows {
		if multi < 0 && len(db.Attr(x.Attribute).Markers) > 1 {
			multi = i
		}
	}
	if foreignRow == nil || foreignSummary == nil || multi < 0 {
		t.Fatal("the fixture lacks a foreign row, a foreign summary or a multi-marker attribute")
	}
	docIDs := db.ReviewIndex.State().DocIDs
	nonEmpty := -1 // a document after the first with opinions
	for d := 1; d+1 < len(db.State().OpStart) && nonEmpty < 0; d++ {
		if st := db.State().OpStart; st[d+1] > st[d] {
			nonEmpty = d
		}
	}
	if nonEmpty < 0 {
		t.Fatal("no document after the first carries an opinion")
	}

	for _, base := range []*core.DB{db, shard} {
		if _, err := core.FromState(craft(base, func(*core.DBState) {}), components(t, base)); err != nil {
			t.Fatalf("an unedited state is refused: %v", err)
		}
	}
	cases := []struct {
		name string
		db   *core.DB
		edit func(st *core.DBState)
		part string
	}{
		{"summary of an entity the shard does not serve", shard, func(st *core.DBState) {
			st.Summaries[foreignAttr][foreign] = foreignSummary
		}, "summaries"},
		{"summary of an entity the shard does not serve, citing nothing", shard, func(st *core.DBState) {
			k := len(db.Attr(foreignAttr).Markers)
			empty := &core.MarkerSummary{Counts: make([]float64, k), SentSum: make([]float64, k),
				VecSum: make([]embedding.Vector, k), Provenance: make([][]int, k)}
			for m := range empty.VecSum {
				empty.VecSum[m] = make(embedding.Vector, db.Embed.Dim())
			}
			st.Summaries[foreignAttr][foreign] = empty
		}, "summaries"},
		{"row of an entity the shard does not serve", shard, func(st *core.DBState) {
			at, _ := slices.BinarySearchFunc(st.Extractions, foreignRow.ID, func(x core.Extraction, id int) int { return x.ID - id })
			st.Extractions = slices.Insert(st.Extractions, at, *foreignRow)
		}, "extractions"},
		{"row id past the extraction count", db, func(st *core.DBState) {
			st.Extractions[len(st.Extractions)-1].ID = len(st.Ops)
		}, "extractions"},
		{"opinion of another attribute than the summary citing it", db, func(st *core.DBState) {
			op := &st.Ops[rows[0].ID]
			op.Attr, op.Marker = (op.Attr+1)%int32(len(db.Attrs)), 0
		}, "summaries"},
		{"opinion of another marker than the summary citing it", db, func(st *core.DBState) {
			op := &st.Ops[rows[multi].ID]
			op.Marker = (op.Marker + 1) % int32(len(db.Attrs[op.Attr].Markers))
		}, "summaries"},
		{"rows out of id order", db, func(st *core.DBState) {
			st.Extractions[0], st.Extractions[1] = st.Extractions[1], st.Extractions[0]
		}, "extractions"},
		{"a row twice", db, func(st *core.DBState) {
			st.Extractions = slices.Insert(st.Extractions, 1, st.Extractions[0])
		}, "extractions"},
		{"opinion naming a marker out of range", db, func(st *core.DBState) {
			st.Ops[0].Marker = int32(len(db.Attrs[st.Ops[0].Attr].Markers))
		}, "review opinions"},
		{"opinion naming an attribute out of range", db, func(st *core.DBState) {
			st.Ops[0].Attr = int32(len(db.Attrs))
		}, "review opinions"},
		{"opinion naming a negative attribute", db, func(st *core.DBState) {
			st.Ops[0].Attr = -1
		}, "review opinions"},
		{"offsets that fall", db, func(st *core.DBState) {
			st.OpStart[nonEmpty] = st.OpStart[nonEmpty+1] + 1
		}, "review opinions"},
		{"offsets that end before the table does", db, func(st *core.DBState) {
			st.Ops = append(st.Ops, core.ReviewOpinion{})
		}, "review opinions"},
		{"offsets that end past the table", db, func(st *core.DBState) {
			st.Ops = st.Ops[:len(st.Ops)-1]
		}, "review opinions"},
		{"offsets for one document too few", db, func(st *core.DBState) {
			st.OpStart = st.OpStart[:len(st.OpStart)-1]
		}, "review opinions"},
		{"offsets for one document too many", db, func(st *core.DBState) {
			st.OpStart = append(st.OpStart, st.OpStart[len(st.OpStart)-1])
		}, "review opinions"},
		{"offsets not starting at zero", db, func(st *core.DBState) {
			st.OpStart[0] = 1
		}, "review opinions"},
		{"no offsets", db, func(st *core.DBState) {
			st.OpStart = nil
		}, "review opinions"},
		{"a sentiment of a review the index lacks", db, func(st *core.DBState) {
			st.ReviewSentiments["never-indexed"] = 0.5
		}, "review index"},
		{"an indexed review without a sentiment", db, func(st *core.DBState) {
			delete(st.ReviewSentiments, docIDs[0])
		}, "review index"},
		{"an indexed review without a sentiment, counts equal", db, func(st *core.DBState) {
			delete(st.ReviewSentiments, docIDs[len(docIDs)/2])
			st.ReviewSentiments["never-indexed"] = 0.5
		}, "review index"},
	}
	for _, c := range cases {
		st := craft(c.db, c.edit)
		got, err := core.FromState(st, components(t, c.db))
		var se *core.StateError
		switch {
		case err == nil:
			t.Errorf("%s: loaded a database of %d entities", c.name, len(got.EntityIDs()))
		case !errors.As(err, &se):
			t.Errorf("%s: error %q is not a *core.StateError", c.name, err)
		case se.Part != c.part:
			t.Errorf("%s: refused as %q (%v), want %q", c.name, se.Part, err, c.part)
		}
	}
}

// TestLoadNamesTheCoreStateError: Load wraps FromState's refusal in the
// core section, and the *core.StateError stays reachable through it.
func TestLoadNamesTheCoreStateError(t *testing.T) {
	_, db := testDB(t)
	dir := t.TempDir()
	good := filepath.Join(dir, "good.snap")
	if _, err := snapshot.Save(good, db); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := snapshot.Load(good)
	if err != nil {
		t.Fatal(err)
	}
	// Number the last row past the extraction count: State shares the row
	// slice with the loaded database, so the edit is what Save writes.
	rows := loaded.State().Extractions
	rows[len(rows)-1].ID = loaded.ExtractionCount()
	bad := filepath.Join(dir, "bad.snap")
	if _, err := snapshot.Save(bad, loaded); err != nil {
		t.Fatal(err)
	}
	_, _, err = snapshot.Load(bad)
	var se *core.StateError
	if !errors.As(err, &se) || se.Part != "extractions" {
		t.Fatalf("got %v, want a *core.StateError about the extractions", err)
	}
	if want := "snapshot: " + snapshot.SectionCore + ": "; len(err.Error()) < len(want) || err.Error()[:len(want)] != want {
		t.Errorf("error %q does not name the %s section", err, snapshot.SectionCore)
	}
}

// TestRebuildSummariesOnALoadedShardKeepsItsRange: a loaded shard holds
// rows only for the entities it serves, so rebuilding its summaries from
// them under uniform weights yields a summary for exactly the entities it
// loaded one for, bit for bit the loaded summary.
func TestRebuildSummariesOnALoadedShardKeepsItsRange(t *testing.T) {
	_, db := testDB(t)
	ids := db.EntityIDs()
	shard, err := db.ShardDB(func(id string) bool { return id < ids[len(ids)/2] })
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "shard.snap")
	if _, err := snapshot.Save(path, shard); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := snapshot.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	prev := loaded.RebuildSummaries(core.UniformWeight)
	bits := func(v []float64) []uint64 {
		out := make([]uint64, len(v))
		for i, f := range v {
			out[i] = math.Float64bits(f)
		}
		return out
	}
	compared := 0
	for _, a := range loaded.Attrs {
		got, want := loaded.Summaries[a.Name], prev[a.Name]
		if len(got) != len(want) {
			t.Errorf("%s: rebuilt %d summaries, loaded %d", a.Name, len(got), len(want))
		}
		for id, s := range got {
			if !loaded.ServesEntity(id) {
				t.Errorf("%s: rebuilt a summary for %s, which the shard does not serve", a.Name, id)
				continue
			}
			w := want[id]
			if w == nil {
				t.Errorf("%s/%s: rebuilt a summary the shard did not load", a.Name, id)
				continue
			}
			same := slices.Equal(bits(s.Counts), bits(w.Counts)) && slices.Equal(bits(s.SentSum), bits(w.SentSum)) &&
				math.Float64bits(s.Total) == math.Float64bits(w.Total) && len(s.VecSum) == len(w.VecSum)
			for m := range s.VecSum {
				same = same && slices.Equal(bits(s.VecSum[m]), bits(w.VecSum[m])) && slices.Equal(s.Provenance[m], w.Provenance[m])
			}
			if !same {
				t.Errorf("%s/%s: the rebuilt summary differs from the loaded one", a.Name, id)
			}
			compared++
		}
	}
	if compared == 0 {
		t.Fatal("the shard has no summaries; the comparison is vacuous")
	}
}
