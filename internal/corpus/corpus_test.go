package corpus

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/extract"
	"repro/internal/sentiment"
	"repro/internal/textproc"
)

func TestGenerateHotelsShape(t *testing.T) {
	d := GenerateHotels(SmallConfig())
	if d.Domain != "hotel" {
		t.Errorf("Domain = %q", d.Domain)
	}
	if len(d.Entities) != 45 {
		t.Errorf("entities = %d, want 45", len(d.Entities))
	}
	if len(d.Reviews) == 0 {
		t.Fatal("no reviews generated")
	}
	cities := map[string]int{}
	for _, e := range d.Entities {
		cities[e.City]++
		if e.PricePerNight <= 0 {
			t.Errorf("entity %s has price %v", e.ID, e.PricePerNight)
		}
		for _, a := range d.Aspects {
			th, ok := e.Latent[a.Name]
			if !ok || th < 0 || th > 1 {
				t.Errorf("entity %s latent %s = %v, ok=%v", e.ID, a.Name, th, ok)
			}
			if a.Categorical && e.LatentCat[a.Name] == "" {
				t.Errorf("entity %s missing category for %s", e.ID, a.Name)
			}
		}
		if len(e.PlatformRatings) != len(hotelRatingAttrs) {
			t.Errorf("entity %s has %d platform ratings", e.ID, len(e.PlatformRatings))
		}
	}
	if cities["london"] != 30 || cities["amsterdam"] != 15 {
		t.Errorf("city split = %v", cities)
	}
}

func TestGenerateRestaurantsShape(t *testing.T) {
	d := GenerateRestaurants(SmallConfig())
	if len(d.Entities) != 40 {
		t.Errorf("entities = %d", len(d.Entities))
	}
	japanese, lowPrice := 0, 0
	for _, e := range d.Entities {
		if e.Cuisine == "japanese" {
			japanese++
		}
		if e.PriceRange == 1 {
			lowPrice++
		}
		if e.Stars < 1 || e.Stars > 5 {
			t.Errorf("stars = %v", e.Stars)
		}
		if len(e.CategoricalAttrs) != len(restaurantCategoricalAttrs) {
			t.Errorf("entity %s has %d categorical attrs", e.ID, len(e.CategoricalAttrs))
		}
	}
	if japanese < 5 {
		t.Errorf("only %d japanese restaurants", japanese)
	}
	if lowPrice < 5 {
		t.Errorf("only %d low-price restaurants", lowPrice)
	}
}

func TestGenerationDeterministic(t *testing.T) {
	a := GenerateHotels(SmallConfig())
	b := GenerateHotels(SmallConfig())
	if len(a.Reviews) != len(b.Reviews) {
		t.Fatal("review counts differ across runs")
	}
	for i := range a.Reviews {
		if a.Reviews[i].Text != b.Reviews[i].Text {
			t.Fatalf("review %d differs", i)
		}
	}
}

// PlatformRatings are drawn in sorted attribute order, so two generations
// agree on every rating, not just on the reviews.
func TestPlatformRatingsDeterministic(t *testing.T) {
	a := GenerateHotels(SmallConfig())
	b := GenerateHotels(SmallConfig())
	for i := range a.Entities {
		if !reflect.DeepEqual(a.Entities[i].PlatformRatings, b.Entities[i].PlatformRatings) {
			t.Fatalf("entity %s: platform ratings %v then %v",
				a.Entities[i].ID, a.Entities[i].PlatformRatings, b.Entities[i].PlatformRatings)
		}
	}
}

// Reviews of high-quality entities must be more positive than reviews of
// low-quality entities — the signal every downstream experiment needs.
func TestLatentQualityDrivesSentiment(t *testing.T) {
	d := GenerateHotels(SmallConfig())
	var hiSum, loSum float64
	var hiN, loN int
	for _, e := range d.Entities {
		theta := e.Latent["room_cleanliness"]
		if theta < 0.35 && theta > 0.75 {
			continue
		}
		for _, r := range reviewsOf(d, e.ID) {
			s := sentiment.Score(r.Text)
			if theta >= 0.75 {
				hiSum += s
				hiN++
			} else if theta <= 0.35 {
				loSum += s
				loN++
			}
		}
	}
	if hiN == 0 || loN == 0 {
		t.Skip("small corpus lacks extreme entities")
	}
	if hiSum/float64(hiN) <= loSum/float64(loN) {
		t.Errorf("clean hotels avg sentiment %.3f should exceed dirty %.3f",
			hiSum/float64(hiN), loSum/float64(loN))
	}
}

// Restaurant reviews must be longer and more positive than hotel reviews
// (Table 4's shape).
func TestTable4Shape(t *testing.T) {
	h := GenerateHotels(SmallConfig())
	r := GenerateRestaurants(SmallConfig())
	avgWords := func(reviews []*Review) float64 {
		var total int
		for _, rv := range reviews {
			total += len(textproc.Tokenize(rv.Text))
		}
		return float64(total) / float64(len(reviews))
	}
	avgPolarity := func(reviews []*Review) float64 {
		var total float64
		for _, rv := range reviews {
			total += sentiment.Score(rv.Text)
		}
		return float64(total) / float64(len(reviews))
	}
	hw, rw := avgWords(h.Reviews), avgWords(r.Reviews)
	if rw <= hw*1.5 {
		t.Errorf("restaurant reviews (%.1f words) should be much longer than hotel (%.1f)", rw, hw)
	}
	hp, rp := avgPolarity(h.Reviews), avgPolarity(r.Reviews)
	if rp <= hp {
		t.Errorf("restaurant polarity %.3f should exceed hotel polarity %.3f", rp, hp)
	}
}

func TestCompositeSignalInReviews(t *testing.T) {
	cfg := SmallConfig()
	cfg.HotelsLondon, cfg.HotelsAmsterdam = 60, 0
	cfg.ReviewsPerHotel = 20
	d := GenerateHotels(cfg)
	romantic := 0
	for _, e := range d.Entities {
		qualifies := e.Latent["service"] >= 0.75 && e.LatentCat["style"] == "luxurious"
		mentions := 0
		for _, r := range reviewsOf(d, e.ID) {
			if strings.Contains(r.Text, "romantic") {
				mentions++
			}
		}
		if qualifies && mentions > 0 {
			romantic++
		}
		if !qualifies && mentions > 0 {
			t.Errorf("non-qualifying entity %s mentions 'romantic' (%d times)", e.ID, mentions)
		}
	}
	if romantic == 0 {
		t.Error("no qualifying entity ever mentioned 'romantic'; co-occurrence signal missing")
	}
}

func TestFlagSignalInReviews(t *testing.T) {
	cfg := SmallConfig()
	cfg.HotelsLondon, cfg.ReviewsPerHotel = 80, 20
	d := GenerateHotels(cfg)
	flagged, mentioned := 0, 0
	for _, e := range d.Entities {
		if !e.Flags["motorcycle"] {
			continue
		}
		flagged++
		for _, r := range reviewsOf(d, e.ID) {
			if strings.Contains(r.Text, "motorcycle") || strings.Contains(r.Text, "bikers") {
				mentioned++
				break
			}
		}
	}
	if flagged == 0 {
		t.Skip("no flagged entities at this scale")
	}
	if mentioned == 0 {
		t.Error("flagged entities never mention the amenity; IR fallback has no signal")
	}
}

func TestPredicateBankSizes(t *testing.T) {
	h := HotelPredicates()
	if len(h) != 190 {
		t.Errorf("hotel predicates = %d, want 190", len(h))
	}
	r := RestaurantPredicates()
	if len(r) != 185 {
		t.Errorf("restaurant predicates = %d, want 185", len(r))
	}
	// All texts distinct.
	for name, bank := range map[string][]Predicate{"hotel": h, "restaurant": r} {
		seen := map[string]bool{}
		for _, p := range bank {
			if seen[p.Text] {
				t.Errorf("%s: duplicate predicate %q", name, p.Text)
			}
			seen[p.Text] = true
			if p.Kind != KindOutOfSchema && p.GoldAttribute == "" {
				t.Errorf("%s: predicate %q lacks gold attribute", name, p.Text)
			}
		}
	}
}

func TestPredicateKindMix(t *testing.T) {
	counts := map[PredicateKind]int{}
	for _, p := range HotelPredicates() {
		counts[p.Kind]++
	}
	if counts[KindComposite] != 16 {
		t.Errorf("composite = %d, want 16", counts[KindComposite])
	}
	if counts[KindOutOfSchema] != 9 {
		t.Errorf("out-of-schema = %d, want 9", counts[KindOutOfSchema])
	}
	if counts[KindMarker] != 11 {
		t.Errorf("marker = %d, want 11 (one per attribute)", counts[KindMarker])
	}
}

func TestPredicateSatisfied(t *testing.T) {
	e := &Entity{
		Latent:    map[string]float64{"room_cleanliness": 0.8, "service": 0.9, "bar": 0.2},
		LatentCat: map[string]string{"style": "luxurious"},
		Flags:     map[string]bool{"motorcycle": true},
	}
	clean := Predicate{GoldAttribute: "room_cleanliness", MinQuality: 0.7}
	if !clean.Satisfied(e) {
		t.Error("clean predicate should hold")
	}
	bar := Predicate{GoldAttribute: "bar", MinQuality: 0.7}
	if bar.Satisfied(e) {
		t.Error("bar predicate should fail")
	}
	lux := Predicate{GoldAttribute: "style", WantCategory: "luxurious"}
	if !lux.Satisfied(e) {
		t.Error("categorical predicate should hold")
	}
	romantic := Predicate{
		Kind:         KindComposite,
		CompositeOf:  map[string]float64{"service": 0.75},
		CompositeCat: map[string]string{"style": "luxurious"},
	}
	if !romantic.Satisfied(e) {
		t.Error("composite predicate should hold")
	}
	romantic.CompositeCat["style"] = "modern"
	if romantic.Satisfied(e) {
		t.Error("composite with wrong category should fail")
	}
	moto := Predicate{Kind: KindOutOfSchema, Flag: "motorcycle"}
	if !moto.Satisfied(e) {
		t.Error("flag predicate should hold")
	}
}

func TestSeeds(t *testing.T) {
	d := GenerateHotels(SmallConfig())
	seeds := d.Seeds()
	if len(seeds) != len(d.Aspects) {
		t.Fatalf("seeds = %d, want %d", len(seeds), len(d.Aspects))
	}
	totalPhrases := 0
	for _, s := range seeds {
		if len(s.Aspects) == 0 || len(s.Opinions) == 0 {
			t.Errorf("seed %s is empty", s.Attribute)
		}
		totalPhrases += len(s.Aspects) + len(s.Opinions)
	}
	// The paper uses 277 seeds for 15 hotel attributes; ours should be in
	// the same ballpark for 12 attributes.
	if totalPhrases < 100 {
		t.Errorf("only %d total seed phrases", totalPhrases)
	}
}

func TestTaggedSentences(t *testing.T) {
	d := GenerateHotels(SmallConfig())
	rng := rand.New(rand.NewSource(3))
	sents := d.TaggedSentences(200, rng)
	if len(sents) != 200 {
		t.Fatalf("got %d sentences", len(sents))
	}
	hasAS, hasOP := 0, 0
	for _, s := range sents {
		if len(s.Tokens) != len(s.Tags) {
			t.Fatal("token/tag length mismatch")
		}
		for _, tag := range s.Tags {
			switch tag {
			case extract.AS:
				hasAS++
			case extract.OP:
				hasOP++
			}
		}
	}
	if hasAS == 0 || hasOP == 0 {
		t.Errorf("tag counts AS=%d OP=%d; gold labels missing", hasAS, hasOP)
	}
}

func TestLevelFor(t *testing.T) {
	a := &AspectSpec{Levels: []LevelSpec{{Name: "a"}, {Name: "b"}, {Name: "c"}, {Name: "d"}}}
	rng := rand.New(rand.NewSource(4))
	// θ=1 should concentrate on the top level; θ=0 on the bottom.
	hi, lo := 0, 0
	for i := 0; i < 500; i++ {
		if a.LevelFor(1.0, rng) >= 2 {
			hi++
		}
		if a.LevelFor(0.0, rng) <= 1 {
			lo++
		}
	}
	if hi < 450 || lo < 450 {
		t.Errorf("LevelFor concentration: hi=%d lo=%d of 500", hi, lo)
	}
	single := &AspectSpec{Levels: []LevelSpec{{Name: "only"}}}
	if single.LevelFor(0.5, rng) != 0 {
		t.Error("single-level aspect must return 0")
	}
}

func TestDatasetAccessors(t *testing.T) {
	d := GenerateHotels(SmallConfig())
	e := d.Entities[0]
	if d.EntityByID(e.ID) != e {
		t.Error("EntityByID failed")
	}
	if d.EntityByID("nope") != nil {
		t.Error("unknown id should return nil")
	}
	if d.Aspect("room_cleanliness") == nil {
		t.Error("Aspect lookup failed")
	}
	if d.Aspect("nope") != nil {
		t.Error("unknown aspect should return nil")
	}
}

// reviewsOf returns all reviews of the entity, in generation order.
func reviewsOf(d *Dataset, entityID string) []*Review {
	var out []*Review
	for _, r := range d.Reviews {
		if r.EntityID == entityID {
			out = append(out, r)
		}
	}
	return out
}

func TestReviewerZipf(t *testing.T) {
	cfg := SmallConfig()
	cfg.ReviewsPerHotel = 20
	d := GenerateHotels(cfg)
	counts := map[string]int{}
	for _, r := range d.Reviews {
		counts[r.Reviewer]++
	}
	prolific := 0
	for _, c := range counts {
		if c >= 10 {
			prolific++
		}
	}
	if prolific == 0 {
		t.Error("no prolific reviewers; the review-qualification feature has nothing to filter")
	}
}

func TestPredicateKindString(t *testing.T) {
	if KindMarker.String() != "marker" || KindOutOfSchema.String() != "out-of-schema" {
		t.Error("kind names wrong")
	}
}
