package harness

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/eval"
	"repro/internal/extract"
	"repro/internal/kdtree"
	"repro/internal/sentiment"
	"repro/internal/survey"
	"repro/internal/textproc"
)

// ---------------------------------------------------------------------------
// Table 3 — the need for experiential search
// ---------------------------------------------------------------------------

// Table3Row is one domain row of Table 3.
type Table3Row struct {
	Domain        string
	SubjectivePct float64
	Examples      []string
}

// RunTable3 simulates the §5.1 user study: 30 workers, 7 criteria each.
func RunTable3(seed int64) []Table3Row {
	rng := rand.New(rand.NewSource(seed))
	var out []Table3Row
	for _, r := range survey.Run(30, 7, rng) {
		out = append(out, Table3Row{Domain: r.Domain, SubjectivePct: r.SubjectivePct, Examples: r.Examples})
	}
	return out
}

// FormatTable3 renders the rows paper-style.
func FormatTable3(rows []Table3Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3: Subjective attributes in different domains.\n")
	fmt.Fprintf(&b, "%-12s %-10s %s\n", "Domain", "%Subj.Attr", "Some examples")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %-10.1f %s\n", r.Domain, r.SubjectivePct, strings.Join(r.Examples, ", "))
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Table 4 — review statistics per query setting
// ---------------------------------------------------------------------------

// Table4Row is one setting row of Table 4.
type Table4Row struct {
	Setting     string
	Entities    int
	Reviews     int
	AvgWords    float64
	AvgPolarity float64
}

// RunTable4 computes the corpus statistics of the four settings.
func RunTable4(hotels, restaurants *corpus.Dataset) []Table4Row {
	var out []Table4Row
	for _, s := range Settings() {
		d := hotels
		if s.Domain == "restaurant" {
			d = restaurants
		}
		cands := Candidates(d, s)
		var reviews, words int
		var pol float64
		for _, rv := range d.Reviews {
			if !cands[rv.EntityID] {
				continue
			}
			reviews++
			toks := textproc.Tokenize(rv.Text)
			words += len(toks)
			pol += sentiment.ScoreTokens(toks)
		}
		row := Table4Row{Setting: s.Name, Entities: len(cands), Reviews: reviews}
		if reviews > 0 {
			row.AvgWords = float64(words) / float64(reviews)
			row.AvgPolarity = pol / float64(reviews)
		}
		out = append(out, row)
	}
	return out
}

// FormatTable4 renders the rows paper-style.
func FormatTable4(rows []Table4Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4: Review statistics.\n")
	fmt.Fprintf(&b, "%-14s %9s %9s %10s %12s\n", "Setting", "#Entities", "#Reviews", "avg #words", "avg polarity")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %9d %9d %10.2f %12.2f\n", r.Setting, r.Entities, r.Reviews, r.AvgWords, r.AvgPolarity)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Table 5 — query result quality vs baselines
// ---------------------------------------------------------------------------

// Table5Methods lists the compared systems in paper order.
var Table5Methods = []string{
	"GZ12 (IR-based)", "ByPrice", "ByRating", "1-Attribute", "2-Attribute", "OpineDB",
}

// Table5Cell is one mean ± CI entry.
type Table5Cell struct {
	Mean float64
	CI   float64
}

// Table5Result holds one setting's method × difficulty grid.
type Table5Result struct {
	Setting string
	// Cells[method][difficulty] — difficulties "easy", "medium", "hard".
	Cells map[string]map[string]Table5Cell
}

// Table5Config sizes the experiment (paper: 100 queries × 10 trials).
type Table5Config struct {
	QueriesPerSet int
	Trials        int
	TopK          int
	Seed          int64
}

// DefaultTable5Config returns a laptop-scale configuration.
func DefaultTable5Config() Table5Config {
	return Table5Config{QueriesPerSet: 40, Trials: 3, TopK: 10, Seed: 11}
}

// RunTable5 reproduces the §5.3 comparison for both domains.
func RunTable5(hotels, restaurants *corpus.Dataset, hotelDB, restDB *core.DB, cfg Table5Config) []Table5Result {
	var out []Table5Result
	for _, s := range Settings() {
		d, db := hotels, hotelDB
		if s.Domain == "restaurant" {
			d, db = restaurants, restDB
		}
		out = append(out, runTable5Setting(d, db, s, cfg))
	}
	return out
}

func runTable5Setting(d *corpus.Dataset, db *core.DB, s Setting, cfg Table5Config) Table5Result {
	res := Table5Result{Setting: s.Name, Cells: map[string]map[string]Table5Cell{}}
	for _, m := range Table5Methods {
		res.Cells[m] = map[string]Table5Cell{}
	}
	cands := Candidates(d, s)
	gz := baselines.NewGZ12(d)
	var attrScores map[string]map[string]float64
	if s.Domain == "hotel" {
		attrScores = baselines.HotelAttributeScores(d)
	} else {
		attrScores = baselines.RestaurantAttributeScores(d)
	}
	candFn := func(id string) bool { return cands[id] }
	opts := core.DefaultQueryOptions()
	opts.TopK = cfg.TopK

	for _, diff := range Difficulties {
		trialQ := map[string][]float64{}
		for trial := 0; trial < cfg.Trials; trial++ {
			rng := rand.New(rand.NewSource(cfg.Seed + int64(trial)*1009 + int64(diff.Conjuncts)))
			queries := SampleQueries(d.Predicates, cfg.QueriesPerSet, diff.Conjuncts, rng)
			perMethod := map[string][]float64{}
			for _, q := range queries {
				texts := PredTexts(d, q)
				quality := func(ranking []string) float64 {
					v := QueryQuality(d, q, ranking, cands, cfg.TopK)
					if v < 0 {
						return 0
					}
					return v
				}
				rankings := map[string][]string{}
				rankings["GZ12 (IR-based)"] = gz.Rank(texts, cands, cfg.TopK)
				if s.Domain == "hotel" {
					rankings["ByPrice"] = baselines.RankByRating(d, func(e *corpus.Entity) float64 { return -e.PricePerNight }, cands, cfg.TopK)
					rankings["ByRating"] = baselines.RankByRating(d, avgPlatformRating, cands, cfg.TopK)
				} else {
					rankings["ByPrice"] = baselines.RankByRating(d, func(e *corpus.Entity) float64 { return -float64(e.PriceRange) }, cands, cfg.TopK)
					rankings["ByRating"] = baselines.RankByRating(d, func(e *corpus.Entity) float64 { return e.Stars }, cands, cfg.TopK)
				}
				rankings["1-Attribute"] = baselines.BestAttributeCombo(attrScores, 1, cfg.TopK, cands, quality)
				rankings["2-Attribute"] = baselines.BestAttributeCombo(attrScores, 2, cfg.TopK, cands, quality)
				if qr, err := db.RankPredicates(texts, candFn, opts); err == nil {
					ids := make([]string, len(qr.Rows))
					for i, r := range qr.Rows {
						ids[i] = r.EntityID
					}
					rankings["OpineDB"] = ids
				}
				for m, ranking := range rankings {
					if v := QueryQuality(d, q, ranking, cands, cfg.TopK); v >= 0 {
						perMethod[m] = append(perMethod[m], v)
					}
				}
			}
			for m, vals := range perMethod {
				mean, _ := eval.MeanCI(vals)
				trialQ[m] = append(trialQ[m], mean)
			}
		}
		for m, vals := range trialQ {
			mean, ci := eval.MeanCI(vals)
			res.Cells[m][diff.Name] = Table5Cell{Mean: mean, CI: ci}
		}
	}
	return res
}

func avgPlatformRating(e *corpus.Entity) float64 {
	if len(e.PlatformRatings) == 0 {
		return 0
	}
	// Sum in key order: float addition is order-sensitive.
	var sum float64
	for _, attr := range slices.Sorted(maps.Keys(e.PlatformRatings)) {
		sum += e.PlatformRatings[attr]
	}
	return sum / float64(len(e.PlatformRatings))
}

// FormatTable5 renders the grids paper-style.
func FormatTable5(results []Table5Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 5: Query result quality (NDCG@10-style sat ratio).\n")
	for _, res := range results {
		fmt.Fprintf(&b, "\n[%s]\n%-18s %8s %8s %8s\n", res.Setting, "Method", "easy", "medium", "hard")
		for _, m := range Table5Methods {
			fmt.Fprintf(&b, "%-18s", m)
			for _, diff := range Difficulties {
				c := res.Cells[m][diff.Name]
				fmt.Fprintf(&b, " %8.2f", c.Mean)
			}
			fmt.Fprintf(&b, "\n")
		}
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Table 6 — extractor quality vs prior state of the art
// ---------------------------------------------------------------------------

// Table6Row is one dataset row.
type Table6Row struct {
	Dataset string
	Train   int
	Test    int
	SOTAF1  float64 // rule-tagger baseline (prior-SOTA stand-in)
	OurF1   float64
	OurCI   float64
}

// RunTable6 evaluates the learned tagger against the rule baseline on the
// four tagging datasets, averaging trials training runs.
func RunTable6(trials int, seed int64) []Table6Row {
	datasets := []struct {
		name    string
		aspects []corpus.AspectSpec
		fillers []string
		train   int
		test    int
	}{
		{"SemEval-14 Restaurant", corpus.RestaurantAspects(), corpus.RestaurantFillers(), 3041, 800},
		{"SemEval-14 Laptop", corpus.LaptopAspects(), corpus.LaptopFillers(), 3045, 800},
		{"SemEval-15 Restaurant", corpus.RestaurantAspects(), corpus.RestaurantFillers(), 1315, 685},
		{"Booking.com Hotel", corpus.HotelAspects(), corpus.HotelFillers(), 800, 112},
	}
	var out []Table6Row
	for di, ds := range datasets {
		dataRng := rand.New(rand.NewSource(seed + int64(di)*31))
		train, test := corpus.TaggedSplit(ds.aspects, ds.fillers, ds.train, ds.test, dataRng)
		rule := extract.EvaluateTagger(extract.NewRuleTagger(), test)
		var f1s []float64
		for trial := 0; trial < trials; trial++ {
			rng := rand.New(rand.NewSource(seed + int64(di)*31 + int64(trial)*101 + 1))
			m, err := extract.TrainPerceptron(train, 6, rng)
			if err != nil {
				continue
			}
			f1s = append(f1s, extract.EvaluateTagger(m, test).Combined*100)
		}
		mean, ci := eval.MeanCI(f1s)
		out = append(out, Table6Row{
			Dataset: ds.name, Train: ds.train, Test: ds.test,
			SOTAF1: rule.Combined * 100, OurF1: mean, OurCI: ci,
		})
	}
	return out
}

// FormatTable6 renders the rows paper-style.
func FormatTable6(rows []Table6Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 6: Extractor F1 (combined aspect/opinion).\n")
	fmt.Fprintf(&b, "%-24s %6s %6s %10s %16s\n", "Dataset", "Train", "Test", "SOTA", "Our Model")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-24s %6d %6d %10.2f %10.2f ± %.2f\n",
			r.Dataset, r.Train, r.Test, r.SOTAF1, r.OurF1, r.OurCI)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Table 7 — marker summaries: accuracy and speedup
// ---------------------------------------------------------------------------

// Table7Column is one query-set column.
type Table7Column struct {
	Setting          string
	LRAccuracyMkrs   float64
	LRAccuracyNoMkrs float64
	NDCGMkrs         float64
	NDCGNoMkrs       float64
	RuntimeMkrs      time.Duration // per QueriesPerSet queries
	RuntimeNoMkrs    time.Duration
	Speedup          float64
}

// Table7Config sizes the ablation.
type Table7Config struct {
	QueriesPerSet int
	Conjuncts     int
	TopK          int
	Seed          int64
}

// DefaultTable7Config mirrors the paper's 100-query runtime unit.
func DefaultTable7Config() Table7Config {
	return Table7Config{QueriesPerSet: 100, Conjuncts: 4, TopK: 10, Seed: 23}
}

// RunTable7 compares the marker-summary membership path against the
// no-marker scan path on every query setting.
func RunTable7(hotels, restaurants *corpus.Dataset, hotelDB, restDB *core.DB, cfg Table7Config) []Table7Column {
	var out []Table7Column
	for _, s := range Settings() {
		d, db := hotels, hotelDB
		if s.Domain == "restaurant" {
			d, db = restaurants, restDB
		}
		cands := Candidates(d, s)
		candFn := func(id string) bool { return cands[id] }
		rng := rand.New(rand.NewSource(cfg.Seed))
		queries := SampleQueries(d.Predicates, cfg.QueriesPerSet, cfg.Conjuncts, rng)

		col := Table7Column{
			Setting:          s.Name,
			LRAccuracyMkrs:   db.Membership.MarkerAccuracy,
			LRAccuracyNoMkrs: db.Membership.ScanAccuracy,
		}
		// pass answers the query set on one arm and returns its mean
		// quality.
		pass := func(opts core.QueryOptions) float64 {
			var qualities []float64
			for _, q := range queries {
				texts := PredTexts(d, q)
				qr, err := db.RankPredicates(texts, candFn, opts)
				if err != nil {
					continue
				}
				ids := make([]string, len(qr.Rows))
				for i, r := range qr.Rows {
					ids[i] = r.EntityID
				}
				if v := QueryQuality(d, q, ids, cands, cfg.TopK); v >= 0 {
					qualities = append(qualities, v)
				}
			}
			mean, _ := eval.MeanCI(qualities)
			return mean
		}
		for _, useMarkers := range []bool{true, false} {
			opts := core.DefaultQueryOptions()
			opts.TopK = cfg.TopK
			opts.UseMarkers = useMarkers
			// One untimed pass first, so both arms are timed from the same
			// memo state: whichever arm ran first would otherwise pay for
			// every predicate interpretation the DB had not memoized yet.
			pass(opts)
			start := time.Now()
			mean := pass(opts)
			elapsed := time.Since(start)
			if useMarkers {
				col.NDCGMkrs, col.RuntimeMkrs = mean, elapsed
			} else {
				col.NDCGNoMkrs, col.RuntimeNoMkrs = mean, elapsed
			}
		}
		if col.RuntimeMkrs > 0 {
			col.Speedup = float64(col.RuntimeNoMkrs) / float64(col.RuntimeMkrs)
		}
		out = append(out, col)
	}
	return out
}

// FormatTable7 renders the columns paper-style.
func FormatTable7(cols []Table7Column) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 7: OpineDB with markers (10-mkrs) vs no markers.\n")
	fmt.Fprintf(&b, "%-14s", "")
	for _, c := range cols {
		fmt.Fprintf(&b, " %14s", c.Setting)
	}
	fmt.Fprintf(&b, "\n10-mkrs LR-acc")
	for _, c := range cols {
		fmt.Fprintf(&b, " %14.2f", c.LRAccuracyMkrs)
	}
	fmt.Fprintf(&b, "\n        NDCG  ")
	for _, c := range cols {
		fmt.Fprintf(&b, " %14.2f", c.NDCGMkrs)
	}
	fmt.Fprintf(&b, "\n        Time  ")
	for _, c := range cols {
		fmt.Fprintf(&b, " %13.2fs", c.RuntimeMkrs.Seconds())
	}
	fmt.Fprintf(&b, "\nno-mkrs LR-acc")
	for _, c := range cols {
		fmt.Fprintf(&b, " %14.2f", c.LRAccuracyNoMkrs)
	}
	fmt.Fprintf(&b, "\n        NDCG  ")
	for _, c := range cols {
		fmt.Fprintf(&b, " %14.2f", c.NDCGNoMkrs)
	}
	fmt.Fprintf(&b, "\n        Time  ")
	for _, c := range cols {
		fmt.Fprintf(&b, " %13.2fs", c.RuntimeNoMkrs.Seconds())
	}
	fmt.Fprintf(&b, "\nSpeedup       ")
	for _, c := range cols {
		fmt.Fprintf(&b, " %13.2fx", c.Speedup)
	}
	fmt.Fprintf(&b, "\n")
	return b.String()
}

// ---------------------------------------------------------------------------
// Table 8 — predicate interpretation accuracy
// ---------------------------------------------------------------------------

// Table8Row is one query-set row.
type Table8Row struct {
	QuerySet string
	Size     int
	W2V      float64
	Cooccur  float64
	Combined float64
	MaxCI    float64
}

// RunTable8 measures interpretation accuracy of the two methods alone and
// combined (w2v with co-occurrence fallback). Out-of-schema predicates are
// excluded (they have no gold attribute). Confidence intervals come from
// bootstrap resampling of the predicate bank.
func RunTable8(hotels, restaurants *corpus.Dataset, hotelDB, restDB *core.DB, seed int64) []Table8Row {
	var out []Table8Row
	for _, dom := range []struct {
		name string
		d    *corpus.Dataset
		db   *core.DB
	}{
		{"Hotel queries", hotels, hotelDB},
		{"Restaurant queries", restaurants, restDB},
	} {
		var w2vHits, coHits, combHits []bool
		for _, p := range dom.d.Predicates {
			if p.GoldAttribute == "" {
				continue
			}
			w2vHits = append(w2vHits, primaryAttr(dom.db.InterpretW2VOnly(p.Text)) == p.GoldAttribute)
			coHits = append(coHits, interpContains(dom.db.InterpretCooccurOnly(p.Text), p.GoldAttribute))
			combHits = append(combHits, interpContains(dom.db.Interpret(p.Text), p.GoldAttribute))
		}
		row := Table8Row{
			QuerySet: dom.name,
			Size:     len(w2vHits),
			W2V:      eval.Accuracy(w2vHits) * 100,
			Cooccur:  eval.Accuracy(coHits) * 100,
			Combined: eval.Accuracy(combHits) * 100,
		}
		// Bootstrap CI over the predicate set.
		rng := rand.New(rand.NewSource(seed))
		var maxCI float64
		for _, hits := range [][]bool{w2vHits, coHits, combHits} {
			var means []float64
			for b := 0; b < 10; b++ {
				sample := make([]bool, len(hits))
				for i := range sample {
					sample[i] = hits[rng.Intn(len(hits))]
				}
				means = append(means, eval.Accuracy(sample)*100)
			}
			if _, ci := eval.MeanCI(means); ci > maxCI {
				maxCI = ci
			}
		}
		row.MaxCI = maxCI
		out = append(out, row)
	}
	return out
}

// primaryAttr returns the first interpreted attribute, or "".
func primaryAttr(in core.Interpretation) string {
	if len(in.Terms) == 0 {
		return ""
	}
	return in.Terms[0].Attr
}

// interpContains reports whether any interpreted term targets the gold
// attribute (the paper's labeling maps each predicate to its closest
// attribute; a co-occurrence disjunction containing it is correct).
func interpContains(in core.Interpretation, gold string) bool {
	for _, t := range in.Terms {
		if t.Attr == gold {
			return true
		}
	}
	return false
}

// FormatTable8 renders the rows paper-style.
func FormatTable8(rows []Table8Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 8: Query interpretation accuracy (%%).\n")
	fmt.Fprintf(&b, "%-20s %5s %8s %10s %14s %7s\n", "Query set", "size", "w2v", "co-occur", "w2v+co-occur", "maxCI")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-20s %5d %8.2f %10.2f %14.2f %7.2f\n",
			r.QuerySet, r.Size, r.W2V, r.Cooccur, r.Combined, r.MaxCI)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 7 (Appendix A) — fuzzy vs hard constraints
// ---------------------------------------------------------------------------

// Figure7Result compares the selection regions on real degree-of-truth
// pairs.
type Figure7Result struct {
	PredicateX, PredicateY string
	FuzzyThreshold         float64
	HardX, HardY           float64
	SelectedFuzzy          int
	SelectedHard           int
	FuzzyOnly              int // entities fuzzy admits but hard rejects
	HardOnly               int
}

// RunFigure7 evaluates two interpreted predicates on every hotel and
// counts the entities admitted by each semantics (Appendix A's shaded
// region is FuzzyOnly). The hard thresholds are set at the median degree
// of truth of each predicate and the fuzzy threshold at their product, so
// the rectangle's corner lies exactly on the x·y hyperbola — the
// geometry of the paper's Figure 7.
func RunFigure7(db *core.DB) Figure7Result {
	res := Figure7Result{
		PredicateX: "has really clean rooms",
		PredicateY: "has friendly staff",
	}
	opts := core.DefaultQueryOptions()
	opts.TopK = 0
	qr, err := db.RankPredicates([]string{res.PredicateX, res.PredicateY}, nil, opts)
	if err != nil {
		return res
	}
	var xs, ys []float64
	for _, row := range qr.Rows {
		if x := row.PredicateScores[res.PredicateX]; x > 0.01 {
			xs = append(xs, x)
		}
		if y := row.PredicateScores[res.PredicateY]; y > 0.01 {
			ys = append(ys, y)
		}
	}
	res.HardX = quantile(xs, 0.6)
	res.HardY = quantile(ys, 0.6)
	res.FuzzyThreshold = res.HardX * res.HardY
	for _, row := range qr.Rows {
		x := row.PredicateScores[res.PredicateX]
		y := row.PredicateScores[res.PredicateY]
		fz := x*y >= res.FuzzyThreshold
		hard := x > res.HardX && y > res.HardY
		if fz {
			res.SelectedFuzzy++
		}
		if hard {
			res.SelectedHard++
		}
		if fz && !hard {
			res.FuzzyOnly++
		}
		if hard && !fz {
			res.HardOnly++
		}
	}
	return res
}

// quantile returns the q-quantile of xs (0 for empty input).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	i := int(q * float64(len(cp)))
	if i >= len(cp) {
		i = len(cp) - 1
	}
	return cp[i]
}

// FormatFigure7 renders the comparison.
func FormatFigure7(r Figure7Result) string {
	return fmt.Sprintf(`Figure 7 (Appendix A): fuzzy vs hard constraints.
Predicates: %q ⊗ %q
Fuzzy (x·y >= %.3f) selects %d entities; hard (x > %.2f ∧ y > %.2f) selects %d.
Entities admitted by fuzzy but rejected by the hard constraint: %d (the shaded region).
Entities admitted by hard but not fuzzy: %d.
`, r.PredicateX, r.PredicateY, r.FuzzyThreshold, r.SelectedFuzzy, r.HardX, r.HardY,
		r.SelectedHard, r.FuzzyOnly, r.HardOnly)
}

// ---------------------------------------------------------------------------
// Figure 8 (Appendix D) — OpineDB vs the IR baseline on "quiet room"
// ---------------------------------------------------------------------------

// Figure8Result holds the quietness marker summaries of the two systems'
// top answers.
type Figure8Result struct {
	Query          string
	IRTop          string
	OpineTop       string
	IRSummary      map[string]float64 // marker name → count
	OpineSummary   map[string]float64
	IRQuietMass    float64 // fraction of mass at positive-sentiment markers
	OpineQuietMass float64
}

// RunFigure8 reproduces the Appendix D example: the IR baseline can rank a
// noisy hotel first because its reviews mention "quiet" inside negative
// phrases, while OpineDB's aggregation puts a genuinely quiet hotel first.
func RunFigure8(d *corpus.Dataset, db *core.DB) Figure8Result {
	const query = "quiet room"
	res := Figure8Result{Query: query}
	gz := baselines.NewGZ12(d)
	if ir := gz.Rank([]string{query}, nil, 1); len(ir) > 0 {
		res.IRTop = ir[0]
	}
	opts := core.DefaultQueryOptions()
	opts.TopK = 1
	if qr, err := db.RankPredicates([]string{query}, nil, opts); err == nil && len(qr.Rows) > 0 {
		res.OpineTop = qr.Rows[0].EntityID
	}
	attr := db.Attr("quietness")
	if attr == nil {
		return res
	}
	summarize := func(entity string) (map[string]float64, float64) {
		s := db.Summary("quietness", entity)
		if s == nil {
			return nil, 0
		}
		out := map[string]float64{}
		var quiet float64
		for i, m := range attr.Markers {
			out[m.Name] = s.Counts[i]
			if m.Sentiment > 0.2 {
				quiet += s.Counts[i]
			}
		}
		return out, quiet / s.Total
	}
	res.IRSummary, res.IRQuietMass = summarize(res.IRTop)
	res.OpineSummary, res.OpineQuietMass = summarize(res.OpineTop)
	return res
}

// FormatFigure8 renders the two summaries side by side.
func FormatFigure8(r Figure8Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8 (Appendix D): room quietness of top answers for %q.\n", r.Query)
	fmt.Fprintf(&b, "IR baseline top:  %s (quiet-mass %.2f): %v\n", r.IRTop, r.IRQuietMass, sortedHist(r.IRSummary))
	fmt.Fprintf(&b, "OpineDB top:      %s (quiet-mass %.2f): %v\n", r.OpineTop, r.OpineQuietMass, sortedHist(r.OpineSummary))
	return b.String()
}

func sortedHist(h map[string]float64) string {
	keys := make([]string, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s:%.0f", k, h[k])
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// ---------------------------------------------------------------------------
// Appendix B — the w2v substitution index
// ---------------------------------------------------------------------------

// AppendixBResult reports the Appendix B substitution index against the
// exact Eq. 2 scan that serves stage 1, over the predicate bank and over
// a fixed sample of new phrasings of it.
type AppendixBResult struct {
	Phrases    int // linguistic-domain phrases indexed
	Bank, Cold AppendixBSet
}

// AppendixBSet is the measurement over one set of predicate texts.
type AppendixBSet struct {
	Predicates int
	// FastFraction is the share of lookups that avoided the k-d tree
	// search (paper: 54.5%); Exact of them were normal-form hits.
	FastFraction float64
	Exact        int
	// Agreement is the share of predicates whose index answer names the
	// exact scan's (attribute, marker).
	Agreement   float64
	TimeIndexed time.Duration
	TimeFull    time.Duration
	SpeedupPct  float64 // paper: 19.8%
}

// Cold phrasings are intensifier × bank predicate × trailing context, the
// shape of the benchmark's read_cold texts; appendixBPhrasings of each
// bank predicate make the sample.
var (
	appendixBIntensifiers = []string{"absolutely", "arguably", "certainly", "easily", "frankly",
		"genuinely", "honestly", "mostly", "notably", "truly"}
	appendixBContexts = []string{"for a weekend in june", "on a budget trip", "near the station",
		"with two toddlers", "during the festival", "after a late flight", "in the old town",
		"without a car", "according to regulars", "even in high season", "if the weather is bad"}
)

const appendixBPhrasings = 4

// RunAppendixB builds the substitution index beside db, over the sorted
// linguistic-domain phrases of every attribute, and compares it with
// InterpretW2VOnly, the exact scan. The index's answer is its Lookup match
// (a fast substitution hit or the k-d tree's nearest phrase), attributed
// to the first attribute whose domain maps it to a marker.
func RunAppendixB(d *corpus.Dataset, db *core.DB) AppendixBResult {
	var phrases []string
	for _, a := range db.Attrs {
		for p := range a.DomainPhrases {
			phrases = append(phrases, p)
		}
	}
	sort.Strings(phrases)
	ix := kdtree.NewSubstitutionIndex(phrases, db.Embed)

	var bank, cold []string
	for i, p := range d.Predicates {
		bank = append(bank, p.Text)
		for j := 0; j < appendixBPhrasings; j++ {
			in := appendixBIntensifiers[(i+j)%len(appendixBIntensifiers)]
			ctx := appendixBContexts[(i*appendixBPhrasings+j)%len(appendixBContexts)]
			cold = append(cold, in+" "+p.Text+" "+ctx)
		}
	}
	return AppendixBResult{
		Phrases: len(phrases),
		Bank:    appendixBMeasure(db, ix, bank),
		Cold:    appendixBMeasure(db, ix, cold),
	}
}

func appendixBMeasure(db *core.DB, ix *kdtree.SubstitutionIndex, texts []string) AppendixBSet {
	res := AppendixBSet{Predicates: len(texts)}
	indexed := make([]core.AttrMarker, len(texts))
	fast, exact0 := 0, ix.ExactHits()
	start := time.Now()
	for i, text := range texts {
		match, hit := ix.Lookup(text)
		if hit {
			fast++
		}
		for _, a := range db.Attrs {
			if m, ok := a.MarkerOf(match); ok {
				indexed[i] = core.AttrMarker{Attr: a.Name, Marker: m}
				break
			}
		}
	}
	res.TimeIndexed = time.Since(start)
	res.Exact = ix.ExactHits() - exact0

	full := make([]core.AttrMarker, len(texts))
	start = time.Now()
	for i, text := range texts {
		if terms := db.InterpretW2VOnly(text).Terms; len(terms) > 0 {
			full[i] = terms[0]
		}
	}
	res.TimeFull = time.Since(start)

	agree := 0
	for i := range texts {
		if indexed[i] == full[i] {
			agree++
		}
	}
	res.FastFraction = float64(fast) / float64(len(texts))
	res.Agreement = float64(agree) / float64(len(texts))
	if res.TimeFull > 0 {
		res.SpeedupPct = 100 * (1 - float64(res.TimeIndexed)/float64(res.TimeFull))
	}
	return res
}

// FormatAppendixB renders the result.
func FormatAppendixB(r AppendixBResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Appendix B: w2v substitution index over %d domain phrases vs the exact Eq. 2 scan.\n", r.Phrases)
	for _, set := range []struct {
		name string
		s    AppendixBSet
	}{{"bank", r.Bank}, {"cold", r.Cold}} {
		s := set.s
		fmt.Fprintf(&b, "%s (%d predicates): similarity search avoided on %.1f%% (%d exact); agrees with the scan on %.1f%%; %.3fs indexed vs %.3fs scan (%.1f%% speedup).\n",
			set.name, s.Predicates, s.FastFraction*100, s.Exact, s.Agreement*100,
			s.TimeIndexed.Seconds(), s.TimeFull.Seconds(), s.SpeedupPct)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Appendix C — pairing models
// ---------------------------------------------------------------------------

// AppendixCResult compares the rule-based and supervised pairing models.
type AppendixCResult struct {
	Examples     int
	RuleAccuracy float64
	LearnedAcc   float64 // paper: 83.87% for the supervised model
}

// pairingSentence is one two-clause sentence with its full gold tags and
// the four labeled candidate pairs it contributes.
type pairingSentence struct {
	tokens     []string
	tags       []extract.Tag
	candidates []extract.PairExample
}

// RunAppendixC builds 1,000 labeled sentence-phrase pairs from two-clause
// synthetic sentences and evaluates both pairing models' link decisions.
func RunAppendixC(seed int64) AppendixCResult {
	rng := rand.New(rand.NewSource(seed))
	trainSents := pairingSentences(corpus.HotelAspects(), 125, rng)
	testSents := pairingSentences(corpus.HotelAspects(), 125, rng)
	var train, test []extract.PairExample
	for _, s := range trainSents {
		train = append(train, s.candidates...)
	}
	for _, s := range testSents {
		test = append(test, s.candidates...)
	}
	res := AppendixCResult{Examples: len(test)}
	lp, err := extract.TrainLearnedPairer(train, rng)
	if err == nil {
		res.LearnedAcc = lp.Accuracy(test) * 100
	}
	// The rule pairer runs once per sentence on the full tag sequence; a
	// candidate (a, o) is classified "linked" iff the pairer linked o to
	// exactly a.
	correct, total := 0, 0
	for _, s := range testSents {
		ops := (extract.RulePairer{}).Pair(s.tokens, s.tags)
		for _, ex := range s.candidates {
			linked := false
			for _, op := range ops {
				if op.PhraseSpan.Start == ex.Opinion.Start && op.PhraseSpan.End == ex.Opinion.End &&
					op.AspectSpan.Start == ex.Aspect.Start && op.AspectSpan.End == ex.Aspect.End {
					linked = true
				}
			}
			if linked == ex.Linked {
				correct++
			}
			total++
		}
	}
	if total > 0 {
		res.RuleAccuracy = 100 * float64(correct) / float64(total)
	}
	return res
}

// pairingSentences builds n two-clause sentences: mostly "the X was P and
// the Y was Q" (gold links (X,P) and (Y,Q); crossed pairs negatives), and
// ~35% of the time the harder distractor form "the X next to the Y was P
// and the Z was Q", where the aspect nearest to P (Y) is NOT its gold
// target — the construction that separates real pairing models from pure
// proximity (Appendix C's motivation for parse-tree distance).
func pairingSentences(aspects []corpus.AspectSpec, n int, rng *rand.Rand) []pairingSentence {
	var out []pairingSentence
	for len(out) < n {
		a1 := aspects[rng.Intn(len(aspects))]
		a2 := aspects[rng.Intn(len(aspects))]
		t1 := a1.AspectTerms[rng.Intn(len(a1.AspectTerms))]
		t2 := a2.AspectTerms[rng.Intn(len(a2.AspectTerms))]
		if t1 == t2 {
			continue
		}
		p1 := a1.Levels[rng.Intn(len(a1.Levels))].Phrases[0]
		p2 := a2.Levels[rng.Intn(len(a2.Levels))].Phrases[0]
		if p1 == p2 {
			continue
		}
		sent := "the " + t1 + " was " + p1 + " and the " + t2 + " was " + p2
		distractor := ""
		if rng.Float64() < 0.35 {
			ad := aspects[rng.Intn(len(aspects))]
			distractor = ad.AspectTerms[rng.Intn(len(ad.AspectTerms))]
			if distractor == t1 || distractor == t2 {
				distractor = ""
			} else {
				sent = "the " + t1 + " next to the " + distractor + " was " + p1 +
					" and the " + t2 + " was " + p2
			}
		}
		toks := textproc.Tokenize(sent)
		s1 := findSpan(toks, textproc.Tokenize(t1), 0)
		var sd extract.Span
		searchFrom := s1.End
		if distractor != "" {
			sd = findSpan(toks, textproc.Tokenize(distractor), s1.End)
			searchFrom = sd.End
		}
		o1 := findSpan(toks, textproc.Tokenize(p1), searchFrom)
		s2 := findSpan(toks, textproc.Tokenize(t2), o1.End)
		o2 := findSpan(toks, textproc.Tokenize(p2), s2.End)
		if s1.End == 0 || o1.End == 0 || s2.End == 0 || o2.End == 0 {
			continue
		}
		if distractor != "" && sd.End == 0 {
			continue
		}
		s1.Tag, s2.Tag = extract.AS, extract.AS
		o1.Tag, o2.Tag = extract.OP, extract.OP
		aspectSpans := []extract.Span{s1, s2}
		if distractor != "" {
			sd.Tag = extract.AS
			aspectSpans = append(aspectSpans, sd)
		}
		tags := make([]extract.Tag, len(toks))
		for _, sp := range aspectSpans {
			for i := sp.Start; i < sp.End; i++ {
				tags[i] = extract.AS
			}
		}
		for _, sp := range []extract.Span{o1, o2} {
			for i := sp.Start; i < sp.End; i++ {
				tags[i] = extract.OP
			}
		}
		candidates := []extract.PairExample{
			{Tokens: toks, Aspect: s1, Opinion: o1, Linked: true},
			{Tokens: toks, Aspect: s2, Opinion: o2, Linked: true},
			{Tokens: toks, Aspect: s1, Opinion: o2, Linked: false},
			{Tokens: toks, Aspect: s2, Opinion: o1, Linked: false},
		}
		if distractor != "" {
			candidates = append(candidates,
				extract.PairExample{Tokens: toks, Aspect: sd, Opinion: o1, Linked: false},
				extract.PairExample{Tokens: toks, Aspect: sd, Opinion: o2, Linked: false},
			)
		}
		out = append(out, pairingSentence{tokens: toks, tags: tags, candidates: candidates})
	}
	return out
}

// findSpan locates sub within toks starting at from.
func findSpan(toks, sub []string, from int) extract.Span {
	for i := from; i+len(sub) <= len(toks); i++ {
		ok := true
		for j := range sub {
			if toks[i+j] != sub[j] {
				ok = false
				break
			}
		}
		if ok {
			return extract.Span{Start: i, End: i + len(sub)}
		}
	}
	return extract.Span{}
}

// FormatAppendixC renders the comparison.
func FormatAppendixC(r AppendixCResult) string {
	return fmt.Sprintf(`Appendix C: pairing models on %d candidate pairs.
Rule-based pairer accuracy:  %.2f%%
Supervised pairer accuracy:  %.2f%%
`, r.Examples, r.RuleAccuracy, r.LearnedAcc)
}
