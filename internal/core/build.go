package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/classify"
	"repro/internal/cluster"
	"repro/internal/embedding"
	"repro/internal/extract"
	"repro/internal/fuzzy"
	"repro/internal/ir"
	"repro/internal/kdtree"
	"repro/internal/relstore"
	"repro/internal/sentiment"
	"repro/internal/textproc"
)

// Config controls database construction and query processing.
type Config struct {
	// MarkersPerAttr is k, the number of markers discovered per attribute
	// (§4.2.1; the component experiments use 10).
	MarkersPerAttr int
	// W2VThreshold is θ1 of Figure 5: minimum phrase similarity for the
	// word2vec interpretation to be accepted. The paper uses 0.5 with
	// 300-dim word2vec trained on 515k reviews; our 48-dim SGNS on a much
	// smaller corpus has a higher random-cosine noise floor, so the
	// calibrated default is 0.75.
	W2VThreshold float64
	// CooccurThreshold is θ2: the minimum lift of the top attribute's
	// tf-idf score over the mean attribute score before the co-occurrence
	// interpretation is trusted; below it OpineDB falls back to text
	// retrieval.
	CooccurThreshold float64
	// CooccurTopK is k, the number of top reviews mined by the
	// co-occurrence method.
	CooccurTopK int
	// CooccurTopN is n, the number of attributes in a co-occurrence
	// interpretation's disjunction.
	CooccurTopN int
	// CooccurMinIDF gates the co-occurrence stage: the predicate must
	// contain at least one indexed content word rarer than this BM25 IDF,
	// otherwise the mined top-k reviews are noise ("good" matches
	// everything) and the stage declines.
	CooccurMinIDF float64
	// FallbackCenter is c in sigmoid(BM25(D,q) − c) (§3.2).
	FallbackCenter float64
	// MinClassifierConfidence drops extractions the attribute classifier
	// is unsure about.
	MinClassifierConfidence float64
	// MinPhraseCoverage drops extractions whose opinion phrase is mostly
	// made of words outside every seed expansion — out-of-schema concepts
	// ("romantic getaway") must stay out of the linguistic domains so the
	// co-occurrence and fallback stages can handle them (§3.2).
	MinPhraseCoverage float64
	// FuzzyVariant selects the t-norm (the paper uses Product).
	FuzzyVariant fuzzy.Variant
	// MinPhraseCount prunes linguistic-domain phrases seen fewer times.
	MinPhraseCount int
	// UseSubstitutionIndex enables the Appendix B index.
	UseSubstitutionIndex bool
	// Embedding is the word2vec training configuration.
	Embedding embedding.TrainConfig
	// TaggerEpochs is the perceptron training epoch count.
	TaggerEpochs int
	// Seed drives all stochastic build steps.
	Seed int64
	// BuildWorkers bounds the worker pool parallelizing the hot build
	// stages (tokenization, per-review extraction, per-attribute marker
	// discovery). 0 means GOMAXPROCS; 1 forces a sequential build. The
	// built database is byte-identical for every worker count under a
	// fixed Seed: stochastic stages draw from per-task RNGs derived from
	// the master seed in declaration order, and parallel results merge in
	// input order.
	BuildWorkers int
}

// workerCount resolves BuildWorkers to an effective pool size.
func (c Config) workerCount() int {
	if c.BuildWorkers > 0 {
		return c.BuildWorkers
	}
	return runtime.GOMAXPROCS(0)
}

// DefaultConfig returns the configuration used throughout the experiments.
func DefaultConfig() Config {
	return Config{
		MarkersPerAttr:          10,
		W2VThreshold:            0.75,
		CooccurThreshold:        0.4,
		CooccurTopK:             50,
		CooccurTopN:             2,
		CooccurMinIDF:           3.0,
		FallbackCenter:          4.0,
		MinClassifierConfidence: 0.2,
		MinPhraseCoverage:       0.6,
		FuzzyVariant:            fuzzy.Product,
		MinPhraseCount:          1,
		UseSubstitutionIndex:    false,
		Embedding:               embedding.DefaultTrainConfig(),
		TaggerEpochs:            6,
		Seed:                    1,
		BuildWorkers:            0, // GOMAXPROCS
	}
}

// parallelFor runs fn(i) for every i in [0, n) across the given number of
// workers, blocking until all complete. Work items are claimed by an
// atomic counter, so the schedule is nondeterministic — callers must make
// fn(i) depend only on i (writing fn's result to slot i of a preallocated
// slice and merging in index order keeps parallel builds deterministic).
func parallelFor(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// AttrSpec declares one subjective attribute for the schema designer:
// its name, whether it is categorical, and the seed sets for the
// attribute classifier (§4.2).
type AttrSpec struct {
	Name        string
	Categorical bool
	Seeds       classify.SeedSet
}

// BuildInput carries everything the construction pipeline (§4) needs.
type BuildInput struct {
	Name string
	// Entities with their objective attributes; the first entity's
	// Objective map determines the Entities relation's columns.
	Entities []EntityData
	// Reviews is the raw review corpus.
	Reviews []ReviewData
	// Attributes is the designer's subjective schema with seeds.
	Attributes []AttrSpec
	// TaggedTraining is the small labeled set for the extractor
	// (the paper's 912 hand-labeled hotel sentences).
	TaggedTraining []extract.Sentence
	// MembershipLabels optionally trains the LR membership functions; when
	// empty a calibrated heuristic membership function is used.
	MembershipLabels []MembershipLabel
}

// Build constructs a subjective database: §4.1 extraction, §4.2 attribute
// classification and marker discovery, §4.2.2 marker-summary aggregation,
// plus the IR indexes and interpreter state of §3.
func Build(in BuildInput, cfg Config) (*DB, error) {
	if len(in.Entities) == 0 {
		return nil, fmt.Errorf("core: no entities")
	}
	if len(in.Reviews) == 0 {
		return nil, fmt.Errorf("core: no reviews")
	}
	if len(in.Attributes) == 0 {
		return nil, fmt.Errorf("core: no subjective attributes declared")
	}
	if len(in.TaggedTraining) == 0 {
		return nil, fmt.Errorf("core: no tagged training sentences for the extractor")
	}
	if cfg.MarkersPerAttr < 2 {
		return nil, fmt.Errorf("core: MarkersPerAttr must be >= 2, got %d", cfg.MarkersPerAttr)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	db := &DB{
		Name:               in.Name,
		Rel:                relstore.NewDB(),
		attrByName:         map[string]*SubjectiveAttribute{},
		Summaries:          map[string]map[string]*MarkerSummary{},
		ReviewSentiments:   map[string]float64{},
		reviewsPerReviewer: map[string]int{},
		cfg:                cfg,
	}

	// ---- Relational layer: Entities and Reviews tables.
	if err := buildEntityTable(db, in.Entities); err != nil {
		return nil, err
	}
	if err := buildReviewTable(db, in.Reviews); err != nil {
		return nil, err
	}
	for _, e := range in.Entities {
		db.entityIDs = append(db.entityIDs, e.ID)
	}
	sort.Strings(db.entityIDs)

	// ---- Corpus statistics + word2vec (trained on the review corpus, §3.2).
	// Tokenization and sentiment scoring are pure per review, so they fan
	// out across the worker pool; the order-sensitive aggregation into
	// corpus stats stays sequential over the indexed results.
	workers := cfg.workerCount()
	stats := textproc.NewCorpusStats()
	docTokens := make([][]string, len(in.Reviews))
	docSentis := make([]float64, len(in.Reviews))
	parallelFor(len(in.Reviews), workers, func(i int) {
		docTokens[i] = textproc.Tokenize(in.Reviews[i].Text)
		docSentis[i] = sentiment.ScoreTokens(docTokens[i])
	})
	for i, rv := range in.Reviews {
		stats.AddDocument(docTokens[i])
		db.ReviewSentiments[rv.ID] = docSentis[i]
		db.reviewsPerReviewer[rv.Reviewer]++
	}
	model, err := embedding.Train(docTokens, stats, cfg.Embedding, rng)
	if err != nil {
		return nil, fmt.Errorf("core: embedding training: %w", err)
	}
	db.Embed = model

	// ---- Extractor (§4.1): train the tagger, pair with the rule pairer.
	tagger, err := extract.TrainPerceptron(in.TaggedTraining, cfg.TaggerEpochs, rng)
	if err != nil {
		return nil, fmt.Errorf("core: tagger training: %w", err)
	}
	db.Extractor = &extract.Extractor{Tagger: tagger, Pairer: extract.RulePairer{}}

	// ---- Attribute classifier (§4.2): seed expansion + softmax.
	seeds := make([]classify.SeedSet, 0, len(in.Attributes))
	for _, a := range in.Attributes {
		seeds = append(seeds, a.Seeds)
	}
	expanded := classify.ExpandSeeds(seeds, model, classify.DefaultExpandConfig(), rng)
	attrClf, err := classify.TrainSoftmax(expanded, classify.DefaultSoftmaxConfig(), rng)
	if err != nil {
		return nil, fmt.Errorf("core: attribute classifier: %w", err)
	}

	// ---- Run extraction over every review sentence. Each review's
	// extraction is a pure function of the trained models, so reviews fan
	// out across the worker pool; the per-review results merge in review
	// order, keeping extraction IDs and phrase counts deterministic.
	perReview := make([][]rawExtraction, len(in.Reviews))
	parallelFor(len(in.Reviews), workers, func(i int) {
		perReview[i] = extractReview(db.Extractor, attrClf, in.Reviews[i], cfg)
	})
	var raw []rawExtraction
	phraseCounts := map[string]map[string]int{} // attr → phrase → count
	for _, a := range in.Attributes {
		phraseCounts[a.Name] = map[string]int{}
	}
	for _, exts := range perReview {
		for _, r := range exts {
			raw = append(raw, r)
			phraseCounts[r.attribute][r.phrase]++
		}
	}
	if len(raw) == 0 {
		return nil, fmt.Errorf("core: extraction produced no opinions")
	}

	// ---- Marker discovery per attribute (§4.2.1). Attributes fan out
	// across the worker pool; each stochastic discovery draws from its own
	// RNG seeded from the master stream in declaration order, so the
	// discovered markers are identical for every worker count.
	markerSeeds := make([]int64, len(in.Attributes))
	for i := range markerSeeds {
		markerSeeds[i] = rng.Int63()
	}
	attrs := make([]*SubjectiveAttribute, len(in.Attributes))
	attrErrs := make([]error, len(in.Attributes))
	parallelFor(len(in.Attributes), workers, func(i int) {
		spec := in.Attributes[i]
		attr := &SubjectiveAttribute{
			Name:          spec.Name,
			Categorical:   spec.Categorical,
			DomainPhrases: map[string]int{},
			phraseMarker:  map[string]int{},
		}
		for p, c := range phraseCounts[spec.Name] {
			if c >= cfg.MinPhraseCount {
				attr.DomainPhrases[p] = c
			}
		}
		if len(attr.DomainPhrases) == 0 {
			// Attribute never observed; keep it with a single neutral marker
			// so queries against it degrade gracefully.
			attr.Markers = []Marker{{Name: spec.Name, Centroid: make(embedding.Vector, model.Dim())}}
			attrs[i] = attr
			return
		}
		if spec.Categorical {
			if err := discoverCategoricalMarkers(attr, model, cfg.MarkersPerAttr, rand.New(rand.NewSource(markerSeeds[i]))); err != nil {
				attrErrs[i] = fmt.Errorf("core: markers for %s: %w", spec.Name, err)
				return
			}
		} else {
			discoverLinearMarkers(attr, model, cfg.MarkersPerAttr)
		}
		attrs[i] = attr
	})
	for _, err := range attrErrs {
		if err != nil {
			return nil, err
		}
	}
	for _, attr := range attrs {
		db.Attrs = append(db.Attrs, attr)
		db.attrByName[attr.Name] = attr
	}

	// ---- Materialize the extraction relation + marker summaries (§4.2.2).
	if err := buildExtractionTable(db); err != nil {
		return nil, err
	}
	extTable, _ := db.Rel.Table("Extractions")
	for _, a := range db.Attrs {
		db.Summaries[a.Name] = map[string]*MarkerSummary{}
	}
	for _, r := range raw {
		attr := db.attrByName[r.attribute]
		mi, ok := attr.MarkerOf(r.phrase)
		if !ok {
			continue // pruned from the linguistic domain
		}
		id := len(db.Extractions)
		ext := Extraction{
			ID:        id,
			EntityID:  r.review.EntityID,
			ReviewID:  r.review.ID,
			Reviewer:  r.review.Reviewer,
			Day:       r.review.Day,
			Attribute: r.attribute,
			Aspect:    r.aspect,
			Phrase:    r.phrase,
			Marker:    mi,
			Sentiment: r.sentiment,
		}
		db.Extractions = append(db.Extractions, ext)
		if err := extTable.Insert(relstore.Row{
			int64(id), ext.EntityID, ext.ReviewID, ext.Reviewer,
			int64(ext.Day), ext.Attribute, ext.Aspect, ext.Phrase,
			int64(mi), ext.Sentiment,
		}); err != nil {
			return nil, err
		}
		addToSummary(db, attr, ext)
	}

	// Finalize summaries: precompute per-marker centroids.
	for _, byEntity := range db.Summaries {
		for _, s := range byEntity {
			s.finalize()
		}
	}

	// ---- IR indexes (§3.2): per-review and per-entity-document.
	db.ReviewIndex = ir.NewIndex()
	for i, rv := range in.Reviews {
		db.ReviewIndex.Add(rv.ID, docTokens[i])
	}
	entityDocs := map[string][]string{}
	for _, rv := range in.Reviews {
		entityDocs[rv.EntityID] = append(entityDocs[rv.EntityID], rv.Text)
	}
	db.EntityIndex = ir.EntityDocs(entityDocs)

	// ---- Derived access paths, statistics and tables (derived.go);
	// membership training below already reads them.
	db.buildDerived()

	// ---- Membership functions (§3.3).
	db.Membership = newMembershipModel(db, in.MembershipLabels, rng)

	// ---- Optional Appendix B substitution index over the full linguistic
	// domain.
	if cfg.UseSubstitutionIndex {
		var phrases []string
		for _, a := range db.Attrs {
			for p := range a.DomainPhrases {
				phrases = append(phrases, p)
			}
		}
		sort.Strings(phrases)
		db.SubIndex = kdtree.NewSubstitutionIndex(phrases, model)
	}
	return db, nil
}

// rawExtraction is one extracted, attribute-classified opinion awaiting
// marker assignment.
type rawExtraction struct {
	review    ReviewData
	aspect    string
	phrase    string
	attribute string
	sentiment float64
}

// extractReview runs §4.1 extraction and §4.2 attribute classification
// over one review's sentences. Pure function of the trained extractor and
// classifier, which makes it the unit of work for the build worker pool.
func extractReview(ex *extract.Extractor, attrClf *classify.Softmax, rv ReviewData, cfg Config) []rawExtraction {
	var out []rawExtraction
	for _, sent := range textproc.Sentences(rv.Text) {
		toks := textproc.Tokenize(sent)
		if len(toks) == 0 {
			continue
		}
		for _, op := range ex.Extract(toks) {
			if op.Phrase == "" {
				continue
			}
			full := op.Phrase
			if op.Aspect != "" {
				full = op.Aspect + " " + op.Phrase
			}
			// Out-of-schema gate: phrases mostly made of words no seed
			// expansion covers ("perfect romantic getaway") are not
			// forced into an attribute; they stay raw-text-only so the
			// co-occurrence and IR-fallback stages keep their signal.
			if attrClf.KnownTokenFraction(full) < cfg.MinPhraseCoverage {
				continue
			}
			attr, conf := attrClf.Classify(full)
			if conf < cfg.MinClassifierConfidence {
				continue
			}
			// The linguistic variation is the aspect+opinion
			// concatenation (§4.2.1); the aspect noun disambiguates
			// otherwise-identical opinion words across attributes
			// ("food excellent" vs "cocktails excellent").
			out = append(out, rawExtraction{
				review:    rv,
				aspect:    op.Aspect,
				phrase:    full,
				attribute: attr,
				sentiment: sentiment.ScorePhrase(op.Phrase),
			})
		}
	}
	return out
}

// discoverLinearMarkers implements §4.2.1's linearly-ordered method: sort
// the linguistic domain by sentiment, split into k equal-count buckets,
// and take each bucket's central phrase as the marker.
func discoverLinearMarkers(attr *SubjectiveAttribute, model *embedding.Model, k int) {
	type scored struct {
		phrase string
		count  int
		senti  float64
	}
	items := make([]scored, 0, len(attr.DomainPhrases))
	for p, c := range attr.DomainPhrases {
		items = append(items, scored{phrase: p, count: c, senti: sentiment.ScorePhrase(p)})
	}
	sort.Slice(items, func(i, j int) bool {
		if items[i].senti != items[j].senti {
			return items[i].senti < items[j].senti
		}
		return items[i].phrase < items[j].phrase
	})
	if k > len(items) {
		k = len(items)
	}
	// Equal-count buckets over the sorted domain.
	buckets := make([][]scored, k)
	for i, it := range items {
		b := i * k / len(items)
		buckets[b] = append(buckets[b], it)
	}
	attr.Markers = attr.Markers[:0]
	for bi, b := range buckets {
		if len(b) == 0 {
			continue
		}
		center := b[len(b)/2]
		m := Marker{Name: center.phrase}
		var sSum float64
		cen := make(embedding.Vector, model.Dim())
		var n float64
		for _, it := range b {
			attr.phraseMarker[it.phrase] = len(attr.Markers)
			sSum += it.senti
			cen.Add(model.Rep(it.phrase))
			n++
		}
		m.Sentiment = sSum / n
		cen.Scale(1 / n)
		m.Centroid = cen
		attr.Markers = append(attr.Markers, m)
		_ = bi
	}
}

// discoverCategoricalMarkers implements §4.2.1's categorical method:
// k-means over phrase embeddings; the medoid phrase of each cluster is the
// suggested marker.
func discoverCategoricalMarkers(attr *SubjectiveAttribute, model *embedding.Model, k int, rng *rand.Rand) error {
	phrases := make([]string, 0, len(attr.DomainPhrases))
	for p := range attr.DomainPhrases {
		phrases = append(phrases, p)
	}
	sort.Strings(phrases)
	points := make([]embedding.Vector, len(phrases))
	for i, p := range phrases {
		points[i] = model.Rep(p)
	}
	if k > len(points) {
		k = len(points)
	}
	res, err := cluster.KMeans(points, k, 50, rng)
	if err != nil {
		return err
	}
	// Build markers from non-empty clusters; remap indices.
	remap := make([]int, k)
	for c := 0; c < k; c++ {
		remap[c] = -1
		if res.Medoids[c] < 0 {
			continue
		}
		m := Marker{Name: phrases[res.Medoids[c]], Centroid: res.Centroids[c]}
		var sSum, n float64
		for i, p := range phrases {
			if res.Assign[i] == c {
				sSum += sentiment.ScorePhrase(p)
				n++
			}
		}
		if n == 0 {
			continue
		}
		m.Sentiment = sSum / n
		remap[c] = len(attr.Markers)
		attr.Markers = append(attr.Markers, m)
	}
	for i, p := range phrases {
		if mi := remap[res.Assign[i]]; mi >= 0 {
			attr.phraseMarker[p] = mi
		}
	}
	return nil
}

// addToSummary incrementally folds one extraction into the summary view.
func addToSummary(db *DB, attr *SubjectiveAttribute, ext Extraction) {
	byEntity := db.Summaries[attr.Name]
	s, ok := byEntity[ext.EntityID]
	if !ok {
		s = newMarkerSummary(len(attr.Markers), db.Embed.Dim())
		byEntity[ext.EntityID] = s
	}
	s.add(ext.Marker, ext.Sentiment, db.Embed.Rep(ext.Phrase), ext.ID)
}

// buildEntityTable creates the Entities relation from the first entity's
// objective attribute map.
func buildEntityTable(db *DB, entities []EntityData) error {
	cols := []relstore.Column{{Name: "id", Type: relstore.TString}}
	var objNames []string
	for name := range entities[0].Objective {
		objNames = append(objNames, name)
	}
	sort.Strings(objNames)
	for _, name := range objNames {
		var ty relstore.Type
		switch entities[0].Objective[name].(type) {
		case string:
			ty = relstore.TString
		case int64:
			ty = relstore.TInt
		case float64:
			ty = relstore.TFloat
		case bool:
			ty = relstore.TBool
		default:
			return fmt.Errorf("core: objective attribute %s has unsupported type %T",
				name, entities[0].Objective[name])
		}
		cols = append(cols, relstore.Column{Name: name, Type: ty})
	}
	t, err := db.Rel.Create(relstore.Schema{Name: "Entities", Columns: cols, Key: "id"})
	if err != nil {
		return err
	}
	for _, e := range entities {
		row := relstore.Row{e.ID}
		for _, name := range objNames {
			row = append(row, e.Objective[name])
		}
		if err := t.Insert(row); err != nil {
			return fmt.Errorf("core: entity %s: %w", e.ID, err)
		}
	}
	return nil
}

func buildReviewTable(db *DB, reviews []ReviewData) error {
	t, err := db.Rel.Create(relstore.Schema{
		Name: "Reviews",
		Columns: []relstore.Column{
			{Name: "id", Type: relstore.TString},
			{Name: "entity", Type: relstore.TString},
			{Name: "reviewer", Type: relstore.TString},
			{Name: "day", Type: relstore.TInt},
			{Name: "text", Type: relstore.TString},
		},
		Key: "entity",
	})
	if err != nil {
		return err
	}
	for _, rv := range reviews {
		if err := t.Insert(relstore.Row{rv.ID, rv.EntityID, rv.Reviewer, int64(rv.Day), rv.Text}); err != nil {
			return err
		}
	}
	return nil
}

func buildExtractionTable(db *DB) error {
	_, err := db.Rel.Create(relstore.Schema{
		Name: "Extractions",
		Columns: []relstore.Column{
			{Name: "id", Type: relstore.TInt},
			{Name: "entity", Type: relstore.TString},
			{Name: "review", Type: relstore.TString},
			{Name: "reviewer", Type: relstore.TString},
			{Name: "day", Type: relstore.TInt},
			{Name: "attribute", Type: relstore.TString},
			{Name: "aspect", Type: relstore.TString},
			{Name: "phrase", Type: relstore.TString},
			{Name: "marker", Type: relstore.TInt},
			{Name: "sentiment", Type: relstore.TFloat},
		},
		Key: "entity",
	})
	return err
}
