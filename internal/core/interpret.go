package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/embedding"
	"repro/internal/sentiment"
	"repro/internal/textproc"
)

// Method identifies which interpreter stage produced an interpretation.
type Method string

// Interpreter stages (Figure 5).
const (
	MethodW2V      Method = "w2v"
	MethodCooccur  Method = "cooccur"
	MethodFallback Method = "fallback"
)

// Interpretation is the output of the subjective query interpreter for one
// predicate: an expression over A.m terms, or a fallback marker.
type Interpretation struct {
	Predicate string
	Method    Method
	// Terms are the A.m targets; empty for fallback.
	Terms []AttrMarker
	// Disjunction is true when terms combine with ⊕ (the common case for
	// co-occurrence output); false combines with ⊗ (§3.2's "sometimes
	// outputs a conjunction").
	Disjunction bool
	// MatchedPhrase is the domain phrase the w2v method matched.
	MatchedPhrase string
	// Similarity is the w2v confidence (stage 1) or co-occurrence
	// confidence (stage 2).
	Similarity float64
}

// String renders the interpretation like the paper's examples, e.g.
// "service.exceptional ⊕ style.luxurious".
func (in Interpretation) String() string {
	if in.Method == MethodFallback {
		return fmt.Sprintf("fallback(%q)", in.Predicate)
	}
	parts := make([]string, len(in.Terms))
	for i, t := range in.Terms {
		parts[i] = t.Attr + "." + fmt.Sprint(t.Marker)
	}
	sep := " ⊕ "
	if !in.Disjunction {
		sep = " ⊗ "
	}
	return strings.Join(parts, sep)
}

// CheckInterpretation reports whether in is well-formed against this
// database's schema: a method Interpret can return, terms exactly where
// that method has them, and every term naming an existing attribute and one
// of its markers. It is the shape check for an interpretation that arrives
// from outside the process (a shipped plan) before ExecuteResolved or
// TopKThresholdResolved index the schema with it; it cannot tell whether in
// is the interpretation Interpret would choose.
func (db *DB) CheckInterpretation(in Interpretation) error {
	switch in.Method {
	case MethodFallback:
		if len(in.Terms) != 0 {
			return fmt.Errorf("core: fallback interpretation of %q carries %d terms", in.Predicate, len(in.Terms))
		}
	case MethodW2V:
		if len(in.Terms) != 1 {
			return fmt.Errorf("core: w2v interpretation of %q carries %d terms, want 1", in.Predicate, len(in.Terms))
		}
	case MethodCooccur:
		if len(in.Terms) == 0 {
			return fmt.Errorf("core: cooccur interpretation of %q carries no terms", in.Predicate)
		}
	default:
		return fmt.Errorf("core: unknown interpretation method %q for %q", in.Method, in.Predicate)
	}
	for _, t := range in.Terms {
		attr := db.Attr(t.Attr)
		if attr == nil {
			return fmt.Errorf("core: interpretation of %q names unknown attribute %q", in.Predicate, t.Attr)
		}
		if t.Marker < 0 || t.Marker >= len(attr.Markers) {
			return fmt.Errorf("core: interpretation of %q names marker %d of %s, which has %d", in.Predicate, t.Marker, t.Attr, len(attr.Markers))
		}
	}
	return nil
}

// phrase is one query phrase with the derived forms the interpreter stages
// and the executor all need — tokens, Eq. 1 representation and its norm,
// phrase sentiment, the stage-1 scan's winner — each computed on first use
// and shared from then on, so a predicate is tokenized, embedded and scanned
// once however many callers ask. One phrase lives for one call chain; it is
// not safe for concurrent use.
type phrase struct {
	text      string
	toks      []string
	rep       embedding.Vector
	norm      float64 // rep.Norm(), taken with rep
	senti     float64
	haveSenti bool
	// best is the variation most similar to the phrase across every
	// attribute and bestAttr the attribute it belongs to (bestVariation),
	// valid once scanned.
	scanned  bool
	bestAttr *SubjectiveAttribute
	best     domainMatch
	// markerSim and markerRow are scanDomainMatch's per-marker scratch,
	// reused from attribute to attribute.
	markerSim []float64
	markerRow []int
}

func (p *phrase) tokens() []string {
	if p.toks == nil {
		p.toks = textproc.Tokenize(p.text)
	}
	return p.toks
}

// repIn is m.Rep(p.text): Rep is RepTokens over the same tokenization.
func (p *phrase) repIn(m *embedding.Model) embedding.Vector {
	if p.rep == nil {
		p.rep = m.RepTokens(p.tokens())
		p.norm = p.rep.Norm()
	}
	return p.rep
}

// sentiment is sentiment.ScorePhrase(p.text).
func (p *phrase) sentiment() float64 {
	if !p.haveSenti {
		p.senti, p.haveSenti = sentiment.ScorePhraseTokens(p.tokens()), true
	}
	return p.senti
}

// bestVariation is the stage-1 scan: the linguistic variation across all
// subjective attributes with the highest Eq. 2 similarity to the phrase
// (attr is nil when no attribute has one). It does not depend on θ1, so the
// gated answer and the ungated component-study answer are two gates over
// one scan.
func (p *phrase) bestVariation(db *DB) (*SubjectiveAttribute, domainMatch) {
	if !p.scanned {
		p.scanned = true
		p.best.sim = -1
		for _, attr := range db.Attrs {
			if m := db.scanDomainMatch(attr, p); m.sim > p.best.sim {
				p.bestAttr, p.best = attr, m
			}
		}
	}
	return p.bestAttr, p.best
}

// Interpret runs the three-stage predicate interpretation algorithm of
// §3.2 (Figure 5): word2vec matching against the linguistic domains, then
// co-occurrence mining over positive reviews, then text-retrieval
// fallback.
func (db *DB) Interpret(predicate string) Interpretation {
	return db.interpretPhrase(&phrase{text: predicate})
}

// interpretPhrase is Interpret over a phrase the caller goes on using.
func (db *DB) interpretPhrase(p *phrase) Interpretation {
	if in, ok := db.interpCache.get(p.text); ok {
		return in
	}
	return db.interpret(p, &cooccurStage{db: db, p: p})
}

// interpret is the Figure 5 chain over a phrase and a co-occurrence stage
// the caller may go on to ask for its ungated answer.
func (db *DB) interpret(p *phrase, co *cooccurStage) Interpretation {
	return db.interpCache.getOrCompute(p.text, func() Interpretation {
		in, ok := db.interpretW2V(p, db.cfg.W2VThreshold)
		if !ok {
			in, ok = co.interpret(db.cfg.CooccurThreshold)
		}
		if !ok {
			in = Interpretation{Predicate: p.text, Method: MethodFallback}
		}
		return in
	})
}

// InterpretW2VOnly runs only the word2vec stage with the threshold
// disabled, always returning its best guess (empty Terms only for fully
// out-of-vocabulary predicates). Used by the Table 8 component study.
// Read-only: the override threshold is passed through rather than swapped
// into the shared config, so this is safe under concurrent readers.
func (db *DB) InterpretW2VOnly(predicate string) Interpretation {
	return db.w2vOnly(&phrase{text: predicate})
}

func (db *DB) w2vOnly(p *phrase) Interpretation {
	in, ok := db.interpretW2V(p, -1)
	if !ok {
		return Interpretation{Predicate: p.text, Method: MethodW2V}
	}
	return in
}

// InterpretCooccurOnly runs only the co-occurrence stage with the
// confidence threshold disabled. Used by the Table 8 component study.
// Read-only, like InterpretW2VOnly.
func (db *DB) InterpretCooccurOnly(predicate string) Interpretation {
	return (&cooccurStage{db: db, p: &phrase{text: predicate}}).only()
}

// InterpretStages returns what Interpret, InterpretW2VOnly and
// InterpretCooccurOnly return for the predicate, computed together: the
// predicate is tokenized, embedded and scanned against the domains once
// (the chosen answer and the w2v diagnostic differ only in the θ1 and
// vocabulary gates), and when stage 1 fails the chosen answer and the
// co-occurrence diagnostic share one mining pass (they differ only in the
// θ2 and informativeness gates).
func (db *DB) InterpretStages(predicate string) (chosen, w2vOnly, cooccurOnly Interpretation) {
	p := &phrase{text: predicate}
	co := &cooccurStage{db: db, p: p}
	return db.interpret(p, co), db.w2vOnly(p), co.only()
}

// interpretW2V finds the linguistic variation across all subjective
// attributes with the highest Eq. 2 similarity to the predicate; the
// interpretation is that variation's attribute and marker. Fails when the
// best similarity is under threshold (θ1; a negative threshold disables
// the gate for the component-study "only" mode).
func (db *DB) interpretW2V(p *phrase, threshold float64) (Interpretation, bool) {
	predicate := p.text
	// Vocabulary gate (skipped in the threshold-disabled "only" mode):
	// Eq. 1's IDF-weighted sum is meaningless when most content words are
	// out of vocabulary — "good for motorcyclists" must not collapse to
	// rep("good") and match the service domain.
	if threshold >= 0 && db.queryKnownFraction(p.tokens()) <= 0.5 {
		return Interpretation{}, false
	}
	attr, best := p.bestVariation(db)
	if attr == nil || best.sim < threshold {
		return Interpretation{}, false
	}
	return Interpretation{
		Predicate:     predicate,
		Method:        MethodW2V,
		Terms:         []AttrMarker{{Attr: attr.Name, Marker: best.marker}},
		MatchedPhrase: best.phrase,
		Similarity:    best.sim,
	}, true
}

// domainMatch is the variation of one attribute most similar to a phrase
// (Eq. 2), with its marker.
type domainMatch struct {
	phrase string
	marker int
	sim    float64
}

// bestDomainMatch is scanDomainMatch through the domainMatches memo, for
// the callers whose phrase texts recur: review preparation (the same
// opinion phrases arrive review after review) and membership-label
// resolution. The scan's inputs — the embedding model, the attribute's
// marker schema, and the domain tables — are all frozen at build time
// (ingestion folds summaries, it never retrains), so the entry for
// (attr, query) is never invalidated. The interpreter does not come
// through here: its texts are the clients' and mostly never repeat, and one
// scan costs less than keeping them.
func (db *DB) bestDomainMatch(attr *SubjectiveAttribute, query *phrase) domainMatch {
	return db.domainMatches.getOrCompute(attr.Name+"\x00"+query.text, func() domainMatch {
		return db.scanDomainMatch(attr, query)
	})
}

// scanDomainMatch returns the linguistic variation of attr most similar to
// the query phrase (Eq. 2), with its marker, in one pass over the
// attribute's domain table.
//
// Similarity is sentiment-consistent: a variation whose sentiment opposes
// the query's is halved. Large-corpus word2vec separates "really clean"
// from "not clean at all" on its own; a small-corpus SGNS sees nearly the
// same context for both (they share "clean" and "room"), so polarity must
// be enforced explicitly or positive queries would resolve to negated
// variations and rank dirty hotels first.
//
// Float order is part of the contract: the cosine is dot/(|q|·|c|) with one
// accumulator in dimension order (domainTable.cosine), and the halving
// applies to the quotient.
func (db *DB) scanDomainMatch(attr *SubjectiveAttribute, query *phrase) domainMatch {
	q := query.repIn(db.Embed)
	if query.norm == 0 {
		return domainMatch{marker: -1}
	}
	qSent := query.sentiment()
	// Track the best similarity per marker; on a small corpus many
	// variations of one attribute tie near the top ("room clean",
	// "room very clean", "room clean and tidy" all share the query's
	// words), so the marker is resolved among close candidates by
	// sentiment proximity to the query.
	k := len(attr.Markers)
	if cap(query.markerSim) < k {
		query.markerSim, query.markerRow = make([]float64, k), make([]int, k)
	}
	bestPerMarker, bestRow := query.markerSim[:k], query.markerRow[:k]
	for m := range bestPerMarker {
		bestPerMarker[m] = -1
	}
	t := attr.domain
	sim := -1.0
	for i, m := range t.markers {
		s := t.cosine(i, q, query.norm)
		if qSent*t.sentis[i] < -0.01 {
			s *= 0.5
		}
		if s > bestPerMarker[m] {
			bestPerMarker[m], bestRow[m] = s, i
		}
		if s > sim {
			sim = s
		}
	}
	if sim < 0 {
		return domainMatch{marker: -1, sim: sim}
	}
	marker := -1
	bestAdj := math.Inf(-1)
	for m := range attr.Markers {
		if bestPerMarker[m] < 0 {
			continue
		}
		adj := bestPerMarker[m]
		if !attr.Categorical {
			adj -= 0.5 * math.Abs(qSent-attr.Markers[m].Sentiment)
		}
		if adj > bestAdj {
			bestAdj = adj
			marker = m
		}
	}
	if marker < 0 {
		return domainMatch{marker: -1, sim: -1}
	}
	return domainMatch{phrase: t.phrases[bestRow[marker]], marker: marker, sim: sim}
}

// cooccurStage is the co-occurrence method over one predicate: search the
// top-k positive reviews matching the predicate (rank_score = BM25 · senti,
// Eq. 3), tally which attributes' extractions occur in them, score by
// freq_k(A)·idf(A), and emit the top-n attributes with their most frequent
// markers. Mining does not depend on the threshold, so it runs at most
// once per stage and the θ2-gated answer and the ungated component-study
// answer are two gates over the same mined result.
type cooccurStage struct {
	db *DB
	p  *phrase
	// toks are the search terms and informative whether any of the
	// predicate's own terms is distinctive; set by prepare.
	prepared    bool
	toks        []string
	informative bool
	// mined is the threshold-independent outcome, nil until mine runs.
	mined *cooccurMined
}

// cooccurMined is what one mining pass found. ok is false when no positive
// review matched or none of the matched reviews carried an extraction.
type cooccurMined struct {
	ok          bool
	terms       []AttrMarker
	disjunction bool
	conf        float64
}

// interpret applies the gates for threshold θ2; negative disables the
// confidence and informativeness gates (the component-study "only" mode).
func (c *cooccurStage) interpret(threshold float64) (Interpretation, bool) {
	c.prepare()
	if !c.informative && threshold >= 0 {
		// Informativeness gate: with no distinctive indexed term the mined
		// set is noise.
		return Interpretation{}, false
	}
	if c.mined == nil {
		c.mined = c.db.mineCooccur(c.toks)
	}
	if !c.mined.ok || c.mined.conf < threshold {
		return Interpretation{}, false
	}
	return Interpretation{
		Predicate:   c.p.text,
		Method:      MethodCooccur,
		Terms:       c.mined.terms,
		Disjunction: c.mined.disjunction,
		Similarity:  c.mined.conf,
	}, true
}

// only is the stage's ungated answer (InterpretCooccurOnly).
func (c *cooccurStage) only() Interpretation {
	in, ok := c.interpret(-1)
	if !ok {
		return Interpretation{Predicate: c.p.text, Method: MethodCooccur}
	}
	return in
}

// prepare picks the search terms. "Reviews where q occurs" means reviews
// containing q's distinctive terms: common words like "good" match
// everything and would swamp the tally, so the search query keeps only
// informative terms when any exist.
func (c *cooccurStage) prepare() {
	if c.prepared {
		return
	}
	c.prepared = true
	db := c.db
	c.toks = c.p.tokens()
	var informative []string
	for _, t := range c.toks {
		if textproc.IsStopword(t) || db.ReviewIndex.DF(t) == 0 {
			continue
		}
		if db.ReviewIndex.IDF(t) >= db.cfg.CooccurMinIDF {
			informative = append(informative, t)
		}
	}
	if len(informative) > 0 {
		c.toks, c.informative = informative, true
	}
}

// mineCooccur searches the positive reviews for toks and tallies the
// attributes and markers co-occurring in the top matches. The tallies are
// integer counts indexed by attribute ordinal (and marker), so every
// quantity below is an array read and no float depends on the order the
// reviews or their extractions are visited in.
func (db *DB) mineCooccur(toks []string) *cooccurMined {
	top := db.ReviewIndex.SearchBoosted(toks, db.cfg.CooccurTopK, db.reviewBoost)
	if len(top) == 0 {
		return &cooccurMined{}
	}
	nA := len(db.Attrs)
	// freq[a] counts a's extractions in the top reviews, markerFreq[a][m]
	// those at marker m, and obs[a] the top reviews carrying any; mined
	// holds one attribute set per top review that has an extraction.
	freq, obs := make([]int, nA), make([]int, nA)
	markerFreq := make([][]int, nA)
	words := (nA + 63) / 64
	mined := make([]uint64, 0, len(top)*words)
	for _, r := range top {
		exts := db.reviewOpinions(r.Doc)
		if len(exts) == 0 {
			continue
		}
		set := mined[len(mined) : len(mined)+words]
		mined = mined[:len(mined)+words]
		for _, ext := range exts {
			a := int(ext.Attr)
			freq[a]++
			if markerFreq[a] == nil {
				markerFreq[a] = make([]int, len(db.Attrs[a].Markers))
			}
			markerFreq[a][ext.Marker]++
			if set[a/64]&(1<<(a%64)) == 0 {
				set[a/64] |= 1 << (a % 64)
				obs[a]++
			}
		}
	}
	if len(mined) == 0 {
		return &cooccurMined{}
	}
	type scored struct {
		attr  *SubjectiveAttribute
		score float64
	}
	ranked := make([]scored, 0, nA)
	for a, f := range freq {
		if f == 0 {
			continue
		}
		idf := math.Log(float64(db.positiveReviews+1) / float64(db.reviewsWithAttrCount[a]+1))
		if idf < 0.05 {
			idf = 0.05 // ubiquitous attributes still carry some signal
		}
		ranked = append(ranked, scored{attr: db.Attrs[a], score: float64(f) * idf})
	}
	slices.SortFunc(ranked, func(x, y scored) int {
		if x.score != y.score {
			return cmp.Compare(y.score, x.score)
		}
		return cmp.Compare(x.attr.Name, y.attr.Name)
	})
	n := min(db.cfg.CooccurTopN, len(ranked))
	// Confidence: over-representation of the chosen attributes relative to
	// the *other* attributes in the same mined set. Reviews matched by a
	// genuine composite concept over-mention its proxy aspects (§3.2) —
	// "romantic getaway" reviews talk about service and bathrooms far
	// above base rate — whereas reviews matched by an out-of-schema
	// amenity mention every aspect at its usual rate. Normalizing by the
	// median attribute's over-representation cancels the uniform lift the
	// sentiment-boosted retrieval gives every attribute; +1 smoothing
	// deflates thin evidence.
	ratioOf := make([]float64, nA)
	for a := range ratioOf {
		exp := float64(len(top)) * float64(db.reviewsWithAttrCount[a]) / float64(db.positiveReviews+1)
		ratioOf[a] = float64(obs[a]) / (exp + 1)
	}
	sorted := slices.Clone(ratioOf)
	slices.Sort(sorted)
	median := sorted[nA/2]
	conf := 0.0
	terms := make([]AttrMarker, 0, n)
	for _, r := range ranked[:n] {
		if lift := ratioOf[r.attr.ord]/median - 1; median > 0 && lift > conf {
			conf = lift
		}
		// Prefer frequent positive markers — positive reviews mention the
		// good end of each correlated scale — taking the lowest index among
		// equal weights.
		best, bestW := 0, -1.0
		for m, f := range markerFreq[r.attr.ord] {
			if w := float64(f) * (1 + math.Max(0, r.attr.Markers[m].Sentiment)); f > 0 && w > bestW {
				best, bestW = m, w
			}
		}
		terms = append(terms, AttrMarker{Attr: r.attr.Name, Marker: best})
	}
	// ⊕ vs ⊗ (§3.2): if the chosen attributes are usually mentioned
	// together in the mined reviews, emit a conjunction.
	disjunction := true
	if len(terms) == 2 {
		a0, a1 := ranked[0].attr.ord, ranked[1].attr.ord
		joint, either := 0, 0
		for i := 0; i < len(mined); i += words {
			has0 := mined[i+a0/64]&(1<<(a0%64)) != 0
			has1 := mined[i+a1/64]&(1<<(a1%64)) != 0
			if has0 || has1 {
				either++
			}
			if has0 && has1 {
				joint++
			}
		}
		if either > 0 && float64(joint)/float64(either) > 0.5 {
			disjunction = false
		}
	}
	return &cooccurMined{ok: true, terms: terms, disjunction: disjunction, conf: conf}
}

// queryKnownFraction returns the fraction of the predicate's content words
// with embedding vectors, with light morphological leniency ("rooms"
// counts when "room" is in vocabulary).
func (db *DB) queryKnownFraction(toks []string) float64 {
	var known, total float64
	for _, t := range toks {
		if textproc.IsStopword(t) {
			continue
		}
		total++
		if db.Embed.Has(t) {
			known++
			continue
		}
		if strings.HasSuffix(t, "s") && db.Embed.Has(strings.TrimSuffix(t, "s")) {
			known++
			continue
		}
		if db.Embed.Has(t + "s") {
			known++
		}
	}
	if total == 0 {
		return 0
	}
	return known / total
}

// extractionsFor returns the positions in db.extractions of (attribute,
// entity)'s rows, in id order.
func (db *DB) extractionsFor(attr, entityID string) []int {
	byEntity, ok := db.extIndex[attr]
	if !ok {
		return nil
	}
	return byEntity[entityID]
}
