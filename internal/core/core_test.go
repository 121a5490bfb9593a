package core_test

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/fuzzy"
	"repro/internal/harness"
)

// The test fixture builds one small hotel database shared by all tests;
// construction runs the full §4 pipeline (embedding training, tagger
// training, extraction, marker discovery, aggregation).
var (
	fixOnce sync.Once
	fixData *corpus.Dataset
	fixDB   *core.DB
	fixErr  error
)

func testDB(t testing.TB) (*corpus.Dataset, *core.DB) {
	t.Helper()
	fixOnce.Do(func() {
		cfg := corpus.SmallConfig()
		cfg.HotelsLondon, cfg.HotelsAmsterdam = 60, 25
		cfg.ReviewsPerHotel = 22
		fixData = corpus.GenerateHotels(cfg)
		c := core.DefaultConfig()
		c.MarkersPerAttr = 6
		fixDB, fixErr = harness.BuildDB(fixData, c, 700, 600)
	})
	if fixErr != nil {
		t.Fatalf("fixture build: %v", fixErr)
	}
	return fixData, fixDB
}

func TestBuildValidation(t *testing.T) {
	if _, err := core.Build(core.BuildInput{}, core.DefaultConfig()); err == nil {
		t.Error("empty input should fail")
	}
	in := core.BuildInput{
		Name:     "x",
		Entities: []core.EntityData{{ID: "e1", Objective: map[string]interface{}{"p": 1.0}}},
	}
	if _, err := core.Build(in, core.DefaultConfig()); err == nil {
		t.Error("missing reviews should fail")
	}
}

func TestBuildProducesSchema(t *testing.T) {
	d, db := testDB(t)
	if len(db.Attrs) != len(d.Aspects) {
		t.Fatalf("built %d attributes, want %d", len(db.Attrs), len(d.Aspects))
	}
	for _, a := range db.Attrs {
		if len(a.Markers) == 0 {
			t.Errorf("attribute %s has no markers", a.Name)
		}
		if len(a.Markers) > 6 {
			t.Errorf("attribute %s has %d markers, cap is 6", a.Name, len(a.Markers))
		}
		if len(a.DomainPhrases) == 0 {
			t.Errorf("attribute %s has empty linguistic domain", a.Name)
		}
	}
	// Relational layer present.
	for _, name := range []string{"Entities", "Reviews", "Extractions"} {
		if _, err := db.Rel.Table(name); err != nil {
			t.Errorf("missing relation %s: %v", name, err)
		}
	}
	if len(db.Extractions) == 0 {
		t.Fatal("no extractions")
	}
}

func TestLinearMarkersOrderedBySentiment(t *testing.T) {
	_, db := testDB(t)
	attr := db.Attr("room_cleanliness")
	if attr == nil {
		t.Fatal("missing room_cleanliness")
	}
	if attr.Categorical {
		t.Fatal("room_cleanliness should be linear")
	}
	prev := -2.0
	for _, m := range attr.Markers {
		if m.Sentiment < prev-1e-9 {
			t.Errorf("markers not sentiment-ordered: %v after %v", m.Sentiment, prev)
		}
		prev = m.Sentiment
	}
	// The top marker should be genuinely positive and the bottom negative:
	// the corpus contains both clean and dirty hotels.
	if attr.Markers[0].Sentiment >= 0 {
		t.Errorf("bottom marker sentiment = %v, want negative", attr.Markers[0].Sentiment)
	}
	if attr.Markers[len(attr.Markers)-1].Sentiment <= 0 {
		t.Errorf("top marker sentiment = %v, want positive", attr.Markers[len(attr.Markers)-1].Sentiment)
	}
}

func TestSummaryCountsConsistent(t *testing.T) {
	_, db := testDB(t)
	// The summary histogram totals must equal the extraction counts.
	perAttrEntity := map[string]map[string]float64{}
	for _, ext := range db.Extractions {
		if perAttrEntity[ext.Attribute] == nil {
			perAttrEntity[ext.Attribute] = map[string]float64{}
		}
		perAttrEntity[ext.Attribute][ext.EntityID]++
	}
	for attrName, byEntity := range perAttrEntity {
		for entity, want := range byEntity {
			s := db.Summary(attrName, entity)
			if s == nil {
				t.Fatalf("missing summary for %s/%s", attrName, entity)
			}
			if s.Total != want {
				t.Errorf("summary total %s/%s = %v, want %v", attrName, entity, s.Total, want)
			}
			var sum float64
			for _, c := range s.Counts {
				sum += c
			}
			if sum != s.Total {
				t.Errorf("summary counts sum %v != total %v", sum, s.Total)
			}
		}
	}
}

func TestSummaryReflectsLatentQuality(t *testing.T) {
	d, db := testDB(t)
	attr := db.Attr("room_cleanliness")
	top := len(attr.Markers) - 1
	// Across entities, the positive-marker mass should track latent
	// cleanliness: compare the cleanest vs the dirtiest entity.
	var best, worst *corpus.Entity
	for _, e := range d.Entities {
		if best == nil || e.Latent["room_cleanliness"] > best.Latent["room_cleanliness"] {
			best = e
		}
		if worst == nil || e.Latent["room_cleanliness"] < worst.Latent["room_cleanliness"] {
			worst = e
		}
	}
	posMass := func(id string) float64 {
		s := db.Summary("room_cleanliness", id)
		if s == nil || s.Total == 0 {
			return 0
		}
		var pos float64
		for i := range s.Counts {
			if attr.Markers[i].Sentiment > 0.2 {
				pos += s.Counts[i]
			}
		}
		return pos / s.Total
	}
	if posMass(best.ID) <= posMass(worst.ID) {
		t.Errorf("positive mass: best=%v (θ=%.2f) should exceed worst=%v (θ=%.2f)",
			posMass(best.ID), best.Latent["room_cleanliness"],
			posMass(worst.ID), worst.Latent["room_cleanliness"])
	}
	_ = top
}

func TestInterpretW2VCleanRooms(t *testing.T) {
	_, db := testDB(t)
	in := db.Interpret("has really clean rooms")
	if in.Method != core.MethodW2V {
		t.Fatalf("method = %v, want w2v (interp: %+v)", in.Method, in)
	}
	if len(in.Terms) != 1 || in.Terms[0].Attr != "room_cleanliness" {
		t.Errorf("interpretation = %v, want room_cleanliness", in.String())
	}
	attr := db.Attr("room_cleanliness")
	m := attr.Markers[in.Terms[0].Marker]
	if m.Sentiment <= 0 {
		t.Errorf("matched marker %q (sentiment %.2f) should be at the positive end", m.Name, m.Sentiment)
	}
}

func TestInterpretCompositeUsesCooccurrence(t *testing.T) {
	_, db := testDB(t)
	in := db.Interpret("is a romantic getaway")
	if in.Method == core.MethodW2V {
		// "romantic" never appears in the linguistic domains (only in raw
		// review text), so w2v must not claim a confident match.
		if in.Similarity > 0.95 {
			t.Errorf("suspiciously confident w2v match for composite: %+v", in)
		}
	}
	if in.Method == core.MethodCooccur {
		attrs := map[string]bool{}
		for _, term := range in.Terms {
			attrs[term.Attr] = true
		}
		// The proxies are exceptional service and luxurious bathrooms.
		if !attrs["service"] && !attrs["style"] {
			t.Errorf("co-occurrence proxies = %v, want service and/or style", in.String())
		}
	}
}

func TestInterpretFallbackForOutOfSchema(t *testing.T) {
	_, db := testDB(t)
	in := db.Interpret("good for motorcyclists")
	if in.Method != core.MethodFallback {
		t.Errorf("method = %v (%v), want fallback", in.Method, in.String())
	}
}

func TestInterpretOnlyMethods(t *testing.T) {
	_, db := testDB(t)
	w := db.InterpretW2VOnly("spotless rooms")
	if len(w.Terms) == 0 {
		t.Error("w2v-only should always produce a best guess for in-vocabulary text")
	}
	c := db.InterpretCooccurOnly("spotless rooms")
	if c.Method != core.MethodCooccur {
		t.Errorf("cooccur-only method = %v", c.Method)
	}
}

func TestQueryEndToEnd(t *testing.T) {
	_, db := testDB(t)
	res, err := db.Query(`select * from Hotels
		where price_pn < 300 and "has really clean rooms" and "has friendly staff"
		limit 10`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no results")
	}
	if len(res.Rows) > 10 {
		t.Errorf("limit not applied: %d rows", len(res.Rows))
	}
	// Scores sorted descending and in (0, 1].
	prev := 2.0
	for _, r := range res.Rows {
		if r.Score <= 0 || r.Score > 1 {
			t.Errorf("score %v out of range", r.Score)
		}
		if r.Score > prev {
			t.Error("rows not sorted by score")
		}
		prev = r.Score
		// Objective filter respected.
		v, err := db.ObjectiveValue(r.EntityID, "price_pn")
		if err != nil {
			t.Fatal(err)
		}
		if v.(float64) >= 300 {
			t.Errorf("entity %s violates price filter (%.0f)", r.EntityID, v)
		}
	}
	if len(res.Interpretations) != 2 {
		t.Errorf("interpretations = %d, want 2", len(res.Interpretations))
	}
	if !strings.Contains(res.Rewritten, "⊗") {
		t.Errorf("rewritten query missing ⊗: %s", res.Rewritten)
	}
}

func TestQueryRanksCleanHotelsHigher(t *testing.T) {
	d, db := testDB(t)
	res, err := db.Query(`select * from Hotels where "spotless rooms" limit 10`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 5 {
		t.Fatalf("only %d results", len(res.Rows))
	}
	topAvg, bottomAvg := 0.0, 0.0
	for i, r := range res.Rows {
		theta := d.EntityByID(r.EntityID).Latent["room_cleanliness"]
		if i < 3 {
			topAvg += theta / 3
		}
	}
	// Average latent cleanliness over all entities for comparison.
	var all float64
	for _, e := range d.Entities {
		all += e.Latent["room_cleanliness"]
	}
	bottomAvg = all / float64(len(d.Entities))
	if topAvg <= bottomAvg {
		t.Errorf("top-3 latent cleanliness %.3f should beat corpus mean %.3f", topAvg, bottomAvg)
	}
}

func TestFallbackQueryFindsFlaggedEntities(t *testing.T) {
	d, db := testDB(t)
	var flagged []string
	for _, e := range d.Entities {
		if e.Flags["motorcycle"] {
			flagged = append(flagged, e.ID)
		}
	}
	if len(flagged) == 0 {
		t.Skip("no flagged entities at this scale")
	}
	res, err := db.Query(`select * from Hotels where "good for motorcyclists" limit 5`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("fallback query returned nothing")
	}
	isFlagged := map[string]bool{}
	for _, id := range flagged {
		isFlagged[id] = true
	}
	if !isFlagged[res.Rows[0].EntityID] {
		t.Errorf("top fallback result %s is not a flagged entity", res.Rows[0].EntityID)
	}
}

func TestScanPathAgreesWithMarkerPath(t *testing.T) {
	_, db := testDB(t)
	q := `select * from Hotels where "has really clean rooms" limit 10`
	optsM := core.DefaultQueryOptions()
	resM, err := db.QueryWithOptions(q, optsM)
	if err != nil {
		t.Fatal(err)
	}
	optsS := core.DefaultQueryOptions()
	optsS.UseMarkers = false
	resS, err := db.QueryWithOptions(q, optsS)
	if err != nil {
		t.Fatal(err)
	}
	if len(resM.Rows) == 0 || len(resS.Rows) == 0 {
		t.Fatal("one of the paths returned nothing")
	}
	// Rankings need not be identical, but the top-10 sets should overlap
	// substantially (Table 7's "quality remains mostly unchanged").
	setM := map[string]bool{}
	for _, r := range resM.Rows {
		setM[r.EntityID] = true
	}
	overlap := 0
	for _, r := range resS.Rows {
		if setM[r.EntityID] {
			overlap++
		}
	}
	if overlap < len(resS.Rows)/2 {
		t.Errorf("marker/scan top-10 overlap only %d of %d", overlap, len(resS.Rows))
	}
}

func TestReviewQualification(t *testing.T) {
	_, db := testDB(t)
	// Only reviews by prolific reviewers (>= 3 reviews here) count.
	opts := core.DefaultQueryOptions()
	opts.ReviewFilter = func(reviewer string, day int) bool {
		return db.ReviewerReviewCount(reviewer) >= 3
	}
	res, err := db.QueryWithOptions(`select * from Hotels where "has really clean rooms" limit 10`, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("qualified query returned nothing")
	}
	// A filter that rejects everything must yield zero degrees.
	optsNone := core.DefaultQueryOptions()
	optsNone.ReviewFilter = func(string, int) bool { return false }
	resNone, err := db.QueryWithOptions(`select * from Hotels where "has really clean rooms" limit 10`, optsNone)
	if err != nil {
		t.Fatal(err)
	}
	if len(resNone.Rows) != 0 {
		t.Errorf("all-rejecting filter still returned %d rows", len(resNone.Rows))
	}
}

func TestDateQualifiedQuery(t *testing.T) {
	_, db := testDB(t)
	opts := core.DefaultQueryOptions()
	opts.ReviewFilter = func(reviewer string, day int) bool { return day >= 1825 } // recent half
	res, err := db.QueryWithOptions(`select * from Hotels where "has friendly staff" limit 10`, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("date-qualified query returned nothing")
	}
}

func TestProvenance(t *testing.T) {
	_, db := testDB(t)
	attr := db.Attr("room_cleanliness")
	// Find an entity with extractions for the attribute.
	var entity string
	for id, s := range db.Summaries["room_cleanliness"] {
		if s.Total > 0 {
			entity = id
			break
		}
	}
	if entity == "" {
		t.Fatal("no entity with cleanliness extractions")
	}
	s := db.Summary("room_cleanliness", entity)
	for mi := range attr.Markers {
		if s.Counts[mi] == 0 {
			continue
		}
		exts := db.ProvenanceOf("room_cleanliness", entity, mi)
		if len(exts) != int(s.Counts[mi]) {
			t.Errorf("provenance count %d != histogram count %v", len(exts), s.Counts[mi])
		}
		for _, e := range exts {
			if e.EntityID != entity || e.Attribute != "room_cleanliness" || e.Marker != mi {
				t.Errorf("provenance record mismatch: %+v", e)
			}
		}
	}
	if got := db.ProvenanceOf("room_cleanliness", entity, 99); got != nil {
		t.Error("out-of-range marker should yield nil provenance")
	}
}

func TestFuzzyVariantAffectsScores(t *testing.T) {
	d, db := testDB(t)
	_ = d
	texts := []string{"has really clean rooms", "has friendly staff"}
	opts := core.DefaultQueryOptions()
	resProd, err := db.RankPredicates(texts, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild is too expensive; validate at the fuzzy layer instead: the
	// per-predicate scores must combine as products under the default
	// variant.
	for _, r := range resProd.Rows[:min(3, len(resProd.Rows))] {
		prod := 1.0
		for _, text := range texts {
			prod *= r.PredicateScores[text]
		}
		if diff := prod - r.Score; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("score %v != product of predicate scores %v", r.Score, prod)
		}
	}
}

func TestOrderByOverridesRanking(t *testing.T) {
	_, db := testDB(t)
	res, err := db.Query(`select * from Hotels where "has really clean rooms" order by price_pn asc limit 5`)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for _, r := range res.Rows {
		v, _ := db.ObjectiveValue(r.EntityID, "price_pn")
		p := v.(float64)
		if prev >= 0 && p < prev {
			t.Error("ORDER BY price asc violated")
		}
		prev = p
	}
}

func TestQueryErrors(t *testing.T) {
	_, db := testDB(t)
	if _, err := db.Query("not sql at all"); err == nil {
		t.Error("garbage SQL should error")
	}
	if _, err := db.Query(`select * from Hotels where nosuchcolumn < 5`); err == nil {
		t.Error("unknown column should error")
	}
	if _, err := db.Query(`select * from Hotels where name < 5`); err == nil {
		t.Error("numeric comparison on string column should error")
	}
	if _, err := db.Query(`select * from Hotels where "clean" order by name`); err == nil {
		t.Error("ORDER BY string column should error")
	}
}

func TestMembershipAccuracyInBand(t *testing.T) {
	_, db := testDB(t)
	// The paper reports 71–75% LR accuracy; on synthetic ground truth we
	// accept a broad band but demand clearly-better-than-chance.
	if db.Membership.MarkerAccuracy < 0.6 {
		t.Errorf("marker LR accuracy = %v, want >= 0.6", db.Membership.MarkerAccuracy)
	}
}

func TestConfigValidation(t *testing.T) {
	d, _ := testDB(t)
	rng := rand.New(rand.NewSource(1))
	in := harness.BuildInputFromDataset(d, 50, 0, rng)
	bad := core.DefaultConfig()
	bad.MarkersPerAttr = 1
	if _, err := core.Build(in, bad); err == nil {
		t.Error("MarkersPerAttr=1 should fail")
	}
	in2 := in
	in2.TaggedTraining = nil
	if _, err := core.Build(in2, core.DefaultConfig()); err == nil {
		t.Error("missing tagged training should fail")
	}
	in3 := in
	in3.Attributes = nil
	if _, err := core.Build(in3, core.DefaultConfig()); err == nil {
		t.Error("missing attributes should fail")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Keep fuzzy import used even if variant tests change.
var _ = fuzzy.Product
