package corpus

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"

	"repro/internal/classify"
	"repro/internal/extract"
)

// GenConfig controls corpus generation. Scale defaults reproduce the
// entity counts of Table 4 (189 London hotels under $300, 91 Amsterdam
// hotels, 112 low-price and 108 Japanese restaurants) with review volumes
// scaled down from the paper's 515k/176k to keep experiments laptop-fast;
// the shape (hotels have more, shorter, less positive reviews than
// restaurants) is preserved.
type GenConfig struct {
	Seed int64

	// Hotels.
	HotelsLondon    int
	HotelsAmsterdam int
	ReviewsPerHotel int // mean; actual counts vary ±40%

	// Restaurants.
	Restaurants          int
	ReviewsPerRestaurant int

	// ReviewerPool is the number of distinct reviewers; review authorship
	// is Zipf-distributed so some reviewers are prolific (needed by the
	// "reviewers with >= 10 reviews" qualification feature).
	ReviewerPool int
}

// DefaultConfig returns the experiment-scale configuration.
func DefaultConfig() GenConfig {
	return GenConfig{
		Seed:                 1,
		HotelsLondon:         220, // ~189 land under $300/night
		HotelsAmsterdam:      91,
		ReviewsPerHotel:      40,
		Restaurants:          400, // ~112 low-price, ~108 japanese
		ReviewsPerRestaurant: 18,
		ReviewerPool:         3000,
	}
}

// SmallConfig returns a reduced configuration for unit tests.
func SmallConfig() GenConfig {
	return GenConfig{
		Seed:                 1,
		HotelsLondon:         30,
		HotelsAmsterdam:      15,
		ReviewsPerHotel:      12,
		Restaurants:          40,
		ReviewsPerRestaurant: 8,
		ReviewerPool:         200,
	}
}

// hotelNameParts generate plausible entity names.
var (
	hotelAdjectives = []string{"Grand", "Royal", "Crown", "Park", "Garden", "River", "Harbor", "Victoria", "Windsor", "Summit", "Plaza", "Imperial", "Golden", "Silver", "Maple", "Cedar", "Ivy", "Abbey", "Regent", "Sterling"}
	hotelNouns      = []string{"Hotel", "Inn", "Lodge", "Suites", "House", "Court", "Arms", "Palace", "Residence", "Stay"}
	restAdjectives  = []string{"Sakura", "Golden", "Jade", "Lucky", "Blue", "Crimson", "Umami", "Hana", "Kiku", "Zen", "Momo", "Yuzu", "Kobe", "Aki", "Nori", "Miso", "Tora", "Kaze", "Sora", "Taki"}
	restNouns       = []string{"Kitchen", "House", "Table", "Garden", "Bistro", "Diner", "Grill", "Bar", "Izakaya", "Cafe"}
	cuisines        = []string{"japanese", "italian", "mexican", "thai", "canadian", "indian", "french", "chinese"}
)

// GenerateHotels builds the hotel dataset (Booking.com stand-in).
func GenerateHotels(cfg GenConfig) *Dataset {
	rng := rand.New(rand.NewSource(cfg.Seed))
	aspects := HotelAspects()
	composites := HotelComposites()
	flags := HotelFlags()
	d := &Dataset{
		Domain:     "hotel",
		Aspects:    aspects,
		Composites: composites,
		OOSFlags:   flags,
	}
	total := cfg.HotelsLondon + cfg.HotelsAmsterdam
	for i := 0; i < total; i++ {
		city := "london"
		if i >= cfg.HotelsLondon {
			city = "amsterdam"
		}
		e := &Entity{
			ID:   fmt.Sprintf("h%04d", i),
			Name: entityName(rng, hotelAdjectives, hotelNouns, i),
			City: city,
			// London prices skew high so a meaningful fraction lands above
			// the $300 filter of the Table 4/5 "London, <$300" setting.
			PricePerNight:    60 + rng.Float64()*rng.Float64()*440,
			Capacity:         40 + rng.Intn(360),
			Latent:           map[string]float64{},
			LatentCat:        map[string]string{},
			Flags:            map[string]bool{},
			PlatformRatings:  map[string]float64{},
			CategoricalAttrs: map[string]string{},
		}
		// Latent qualities: hotels are mixed (Table 4's polarity ~0.2).
		for _, a := range aspects {
			theta := clamp01(0.55 + rng.NormFloat64()*0.22)
			e.Latent[a.Name] = theta
			if a.Categorical {
				e.LatentCat[a.Name] = categoryFor(&a, theta, rng)
			}
		}
		for _, f := range flags {
			if rng.Float64() < f.Prevalence {
				e.Flags[f.Name] = true
			}
		}
		// Platform ratings (booking.com style 0..10 scores). These are
		// noisy proxies of the latent quality: scraped aggregate ratings
		// blend many reviewers' disagreements, rating-scale compression
		// and recency effects, so the attribute-based baseline cannot
		// read the latent state directly. Sorted order ties each noise
		// draw to the same rating on every run.
		for _, attr := range slices.Sorted(maps.Keys(hotelRatingAttrs)) {
			e.PlatformRatings[attr] = clamp(e.Latent[hotelRatingAttrs[attr]]*10+rng.NormFloat64()*1.6, 0, 10)
		}
		d.Entities = append(d.Entities, e)
	}
	generateReviews(d, rng, cfg.ReviewsPerHotel, cfg.ReviewerPool, 3, 6, hotelFillers)
	d.Predicates = HotelPredicates()
	return d
}

// GenerateRestaurants builds the restaurant dataset (Yelp stand-in,
// Toronto restaurants).
func GenerateRestaurants(cfg GenConfig) *Dataset {
	rng := rand.New(rand.NewSource(cfg.Seed + 7919))
	aspects := RestaurantAspects()
	composites := RestaurantComposites()
	flags := RestaurantFlags()
	d := &Dataset{
		Domain:     "restaurant",
		Aspects:    aspects,
		Composites: composites,
		OOSFlags:   flags,
	}
	for i := 0; i < cfg.Restaurants; i++ {
		cuisine := cuisines[rng.Intn(len(cuisines))]
		// Pin the Table 4 subpopulations: ~27% japanese, ~28% low-price.
		if i%4 == 1 {
			cuisine = "japanese"
		}
		priceRange := 1 + rng.Intn(4)
		if i%4 == 2 {
			priceRange = 1
		}
		e := &Entity{
			ID:               fmt.Sprintf("r%04d", i),
			Name:             entityName(rng, restAdjectives, restNouns, i),
			City:             "toronto",
			Cuisine:          cuisine,
			PriceRange:       priceRange,
			Latent:           map[string]float64{},
			LatentCat:        map[string]string{},
			Flags:            map[string]bool{},
			PlatformRatings:  map[string]float64{},
			CategoricalAttrs: map[string]string{},
		}
		// Restaurants skew positive (Table 4's polarity ~0.7).
		for _, a := range aspects {
			theta := clamp01(0.68 + rng.NormFloat64()*0.18)
			e.Latent[a.Name] = theta
			if a.Categorical {
				e.LatentCat[a.Name] = categoryFor(&a, theta, rng)
			}
		}
		for _, f := range flags {
			if rng.Float64() < f.Prevalence {
				e.Flags[f.Name] = true
			}
		}
		// Yelp-style attributes.
		var sum float64
		for _, a := range aspects {
			sum += e.Latent[a.Name]
		}
		e.Stars = clamp(sum/float64(len(aspects))*5+rng.NormFloat64()*0.6, 1, 5)
		for _, ca := range restaurantCategoricalAttrs {
			v := ca.Low
			// The cut is noisy: yelp's filter attributes are owner- or
			// crowd-supplied and frequently stale or wrong.
			if e.Latent[ca.Aspect]+rng.NormFloat64()*0.2 >= ca.Cut {
				v = ca.High
			}
			e.CategoricalAttrs[ca.Name] = v
		}
		d.Entities = append(d.Entities, e)
	}
	generateReviews(d, rng, cfg.ReviewsPerRestaurant, cfg.ReviewerPool, 10, 16, restaurantFillers)
	d.Predicates = RestaurantPredicates()
	return d
}

// generateReviews populates d.Reviews for every entity. Sentence counts per
// review are uniform in [minSent, maxSent]; hotels get short reviews,
// restaurants long ones, reproducing Table 4's word-count gap.
func generateReviews(d *Dataset, rng *rand.Rand, meanReviews, reviewerPool, minSent, maxSent int, fillers []string) {
	zipf := rand.NewZipf(rng, 1.4, 4, uint64(reviewerPool-1))
	rid := 0
	for _, e := range d.Entities {
		n := int(float64(meanReviews) * (0.6 + rng.Float64()*0.8))
		if n < 1 {
			n = 1
		}
		e.ReviewCount = n
		for r := 0; r < n; r++ {
			text := generateReviewText(d, e, rng, minSent, maxSent, fillers)
			d.Reviews = append(d.Reviews, &Review{
				ID:       fmt.Sprintf("%s-rv%05d", e.ID, rid),
				EntityID: e.ID,
				Reviewer: fmt.Sprintf("rev%04d", zipf.Uint64()),
				Day:      rng.Intn(3650),
				Text:     text,
			})
			rid++
		}
	}
}

// generateReviewText builds one review: a shuffled mix of aspect-opinion
// sentences (sampled by each aspect's mention probability, with the level
// driven by the entity's latent quality), composite-concept mentions,
// out-of-schema flag mentions, and objective filler.
func generateReviewText(d *Dataset, e *Entity, rng *rand.Rand, minSent, maxSent int, fillers []string) string {
	target := minSent + rng.Intn(maxSent-minSent+1)
	var sentences []string

	// Composite concepts first: a review that calls the hotel "a perfect
	// romantic getaway" also gushes about the concept's proxy aspects in
	// the same breath — this within-review co-occurrence is exactly the
	// signal the §3.2 co-occurrence interpreter mines.
	forced := map[string]bool{}
	var compositeSentences []string
	for i := range d.Composites {
		c := &d.Composites[i]
		if c.Applies(e.Latent, e.LatentCat) && rng.Float64() < c.MentionProb {
			compositeSentences = append(compositeSentences, pick(rng, c.Phrases))
			for a := range c.Proxies {
				forced[a] = true
			}
			for a := range c.CatProxies {
				forced[a] = true
			}
		}
	}

	for i := range d.Aspects {
		a := &d.Aspects[i]
		if !forced[a.Name] && rng.Float64() > a.MentionProb {
			continue
		}
		var level int
		if a.Categorical {
			level = categoryIndex(a, e.LatentCat[a.Name])
			// Occasional off-category mention (reviewer noise).
			if rng.Float64() < 0.15 {
				level = rng.Intn(len(a.Levels))
			}
		} else {
			level = a.LevelFor(e.Latent[a.Name], rng)
		}
		phrase := pick(rng, a.Levels[level].Phrases)
		term := pick(rng, a.AspectTerms)
		sentences = append(sentences, opinionSentence(rng, term, phrase))
	}
	sentences = append(sentences, compositeSentences...)
	for i := range d.OOSFlags {
		f := &d.OOSFlags[i]
		if e.Flags[f.Name] && rng.Float64() < f.MentionProb {
			sentences = append(sentences, pick(rng, f.Phrases))
		}
	}
	for len(sentences) < target {
		sentences = append(sentences, pick(rng, fillers))
	}
	rng.Shuffle(len(sentences), func(i, j int) {
		sentences[i], sentences[j] = sentences[j], sentences[i]
	})
	if len(sentences) > maxSent+2 {
		sentences = sentences[:maxSent+2]
	}
	return strings.Join(sentences, ". ") + "."
}

// sentence templates; index 1 is the "direct opinion" form of §2
// ("very clean room") where the opinion precedes the aspect noun.
func opinionSentence(rng *rand.Rand, term, phrase string) string {
	switch rng.Intn(5) {
	case 0:
		return "The " + term + " was " + phrase
	case 1:
		return capitalize(phrase) + " " + term
	case 2:
		return "We found the " + term + " " + phrase
	case 3:
		return "The " + term + " is " + phrase
	default:
		return "I thought the " + term + " was " + phrase
	}
}

// Seeds derives the designer's seed sets (§4.2) from the domain spec:
// E = the aspect terms, P = four phrases per level (≈18 seeds per
// attribute, matching the paper's 277-seed hotel / 235-seed restaurant
// workload for 15 / 11 attributes).
func (d *Dataset) Seeds() []classify.SeedSet {
	out := make([]classify.SeedSet, 0, len(d.Aspects))
	for _, a := range d.Aspects {
		s := classify.SeedSet{Attribute: a.Name, Aspects: a.AspectTerms}
		for _, l := range a.Levels {
			for i, p := range l.Phrases {
				if i >= 4 {
					break
				}
				s.Opinions = append(s.Opinions, p)
			}
		}
		out = append(out, s)
	}
	return out
}

// TaggedSentences generates gold-labeled tagging data from the same
// templates as the reviews, for training and evaluating the extractor
// (Table 6). Tokens of the aspect term are AS, tokens of the opinion
// phrase OP, everything else O.
func (d *Dataset) TaggedSentences(n int, rng *rand.Rand) []extract.Sentence {
	fillers := hotelFillers
	if d.Domain == "restaurant" {
		fillers = restaurantFillers
	}
	return TaggedFromAspects(d.Aspects, fillers, n, rng)
}

// markSpan finds the first occurrence of sub in toks and tags it.
func markSpan(toks, sub []string, tags []extract.Tag, tag extract.Tag) {
	if len(sub) == 0 {
		return
	}
	for i := 0; i+len(sub) <= len(toks); i++ {
		match := true
		for j := range sub {
			if toks[i+j] != sub[j] {
				match = false
				break
			}
		}
		if match {
			for j := range sub {
				tags[i+j] = tag
			}
			return
		}
	}
}

// categoryFor picks a categorical label consistent with the latent quality
// (higher θ → later categories, matching how the rating attribute derives).
func categoryFor(a *AspectSpec, theta float64, rng *rand.Rand) string {
	return a.Levels[a.LevelFor(theta, rng)].Name
}

func categoryIndex(a *AspectSpec, cat string) int {
	for i, l := range a.Levels {
		if l.Name == cat {
			return i
		}
	}
	return 0
}

func entityName(rng *rand.Rand, adjs, nouns []string, i int) string {
	return fmt.Sprintf("%s %s %d", pick(rng, adjs), pick(rng, nouns), i)
}

func pick(rng *rand.Rand, items []string) string {
	return items[rng.Intn(len(items))]
}

func capitalize(s string) string {
	if s == "" {
		return s
	}
	return strings.ToUpper(s[:1]) + s[1:]
}

func clamp01(x float64) float64 { return clamp(x, 0, 1) }

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
