package core

// The interpreter as it stood before the domain tables, the dense BM25
// search and the array tallies replaced its loops, kept verbatim (names
// prefixed, the interpretation and domain-match memos bypassed) as the
// reference interpret_kernel_test.go compares the kernel against bit for
// bit. It reads only persisted state — schema, the review → opinion table,
// review sentiments, the review index's exported state, the embedding
// model — and
// derives its own statistics with the loops Build used to carry, so it also
// checks what buildDerived and ApplyPrepared maintain. Test-only, single
// goroutine.

import (
	"container/heap"
	"fmt"
	"math"
	"sort"

	"repro/internal/embedding"
	"repro/internal/ir"
	"repro/internal/sentiment"
	"repro/internal/textproc"
)

// InterpretOracle answers as the pre-kernel interpreter would over db's
// current state. Build a new one after every write.
type InterpretOracle struct {
	db *DB
	// The three schema-keyed memos the old interpreter kept on the DB.
	lists  map[string][]string
	reps   map[string]embedding.Vector
	sentis map[string]float64
	// Derived statistics, by the old Build loops.
	index                ir.IndexState
	extByReview          map[string][]Extraction
	reviewsWithAttrCount map[string]int
	positiveReviews      int
}

func NewInterpretOracle(db *DB) *InterpretOracle {
	o := &InterpretOracle{
		db:                   db,
		lists:                map[string][]string{},
		reps:                 map[string]embedding.Vector{},
		sentis:               map[string]float64{},
		index:                db.ReviewIndex.State(),
		extByReview:          map[string][]Extraction{},
		reviewsWithAttrCount: map[string]int{},
	}
	// The review → opinion table as the rows it abbreviates: the review,
	// attribute and marker of every extraction, served or not.
	var exts []Extraction
	for d, id := range o.index.DocIDs {
		for i := db.opStart[d]; i < db.opStart[d+1]; i++ {
			op := db.ops[i]
			exts = append(exts, Extraction{ID: int(i), ReviewID: id, Attribute: db.Attrs[op.Attr].Name, Marker: int(op.Marker)})
		}
	}
	for _, ext := range exts {
		o.extByReview[ext.ReviewID] = append(o.extByReview[ext.ReviewID], ext)
	}
	for _, s := range db.ReviewSentiments {
		if s > 0 {
			o.positiveReviews++
		}
	}
	seenAttrReview := map[string]map[string]bool{}
	for _, ext := range exts {
		if db.ReviewSentiments[ext.ReviewID] <= 0 {
			continue
		}
		if seenAttrReview[ext.Attribute] == nil {
			seenAttrReview[ext.Attribute] = map[string]bool{}
		}
		if !seenAttrReview[ext.Attribute][ext.ReviewID] {
			seenAttrReview[ext.Attribute][ext.ReviewID] = true
			o.reviewsWithAttrCount[ext.Attribute]++
		}
	}
	return o
}

// CooccurStats exposes the co-occurrence state ApplyPrepared maintains, for
// comparison against a database that rebuilt it from scratch.
func (db *DB) CooccurStats() (boost []float64, reviewsWithAttr []int, positive int) {
	return db.reviewBoost, db.reviewsWithAttrCount, db.positiveReviews
}

// Extractions renders what a preparation found, for comparing two.
func (p *PreparedReview) Extractions() []string {
	var out []string
	for _, e := range p.exts {
		out = append(out, fmt.Sprintf("%s.%d %q %v", e.attr.Name, e.marker, e.phrase, e.sentiment))
	}
	return out
}

// DomainMatchesLen counts the entries of the prepare-path domain-match memo.
func (db *DB) DomainMatchesLen() int { return db.domainMatches.len() }

func (o *InterpretOracle) Interpret(predicate string) Interpretation {
	p := &phrase{text: predicate}
	in, ok := o.oracleInterpretW2V(p, o.db.cfg.W2VThreshold)
	if !ok {
		in, ok = o.oracleCooccur(p, o.db.cfg.CooccurThreshold)
	}
	if !ok {
		in = Interpretation{Predicate: p.text, Method: MethodFallback}
	}
	return in
}

func (o *InterpretOracle) W2VOnly(predicate string) Interpretation {
	p := &phrase{text: predicate}
	in, ok := o.oracleInterpretW2V(p, -1)
	if !ok {
		return Interpretation{Predicate: p.text, Method: MethodW2V}
	}
	return in
}

func (o *InterpretOracle) CooccurOnly(predicate string) Interpretation {
	p := &phrase{text: predicate}
	in, ok := o.oracleCooccur(p, -1)
	if !ok {
		return Interpretation{Predicate: p.text, Method: MethodCooccur}
	}
	return in
}

// ---- the pre-kernel code, verbatim ----

func (o *InterpretOracle) oracleInterpretW2V(p *phrase, threshold float64) (Interpretation, bool) {
	db := o.db
	predicate := p.text
	if threshold >= 0 && db.queryKnownFraction(p.tokens()) <= 0.5 {
		return Interpretation{}, false
	}
	var best struct {
		attr   *SubjectiveAttribute
		phrase string
		marker int
		sim    float64
	}
	best.sim = -1
	for _, attr := range db.Attrs {
		phrase, marker, sim := o.oracleScanDomainMatch(attr, p)
		if sim > best.sim {
			best.attr, best.phrase, best.marker, best.sim = attr, phrase, marker, sim
		}
	}
	if best.attr == nil || best.sim < threshold {
		return Interpretation{}, false
	}
	return Interpretation{
		Predicate:     predicate,
		Method:        MethodW2V,
		Terms:         []AttrMarker{{Attr: best.attr.Name, Marker: best.marker}},
		MatchedPhrase: best.phrase,
		Similarity:    best.sim,
	}, true
}

func (o *InterpretOracle) oracleScanDomainMatch(attr *SubjectiveAttribute, query *phrase) (phrase string, marker int, sim float64) {
	qRep := query.repIn(o.db.Embed)
	if qRep.Norm() == 0 {
		return "", -1, 0
	}
	qSent := query.sentiment()
	bestPerMarker := make([]float64, len(attr.Markers))
	bestPhrase := make([]string, len(attr.Markers))
	for i := range bestPerMarker {
		bestPerMarker[i] = -1
	}
	sim = -1
	for _, p := range o.oracleDomainPhraseList(attr) {
		s := embedding.Cosine(qRep, o.oraclePhraseRep(p))
		if qSent*o.oraclePhraseSentiment(p) < -0.01 {
			s *= 0.5
		}
		m, ok := attr.MarkerOf(p)
		if !ok {
			continue
		}
		if s > bestPerMarker[m] {
			bestPerMarker[m] = s
			bestPhrase[m] = p
		}
		if s > sim {
			sim = s
		}
	}
	if sim < 0 {
		return "", -1, sim
	}
	marker = -1
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
		return "", -1, -1
	}
	return bestPhrase[marker], marker, sim
}

func (o *InterpretOracle) oraclePhraseSentiment(phrase string) float64 {
	s, ok := o.sentis[phrase]
	if !ok {
		s = sentiment.ScorePhrase(phrase)
		o.sentis[phrase] = s
	}
	return s
}

func (o *InterpretOracle) oracleDomainPhraseList(attr *SubjectiveAttribute) []string {
	out, ok := o.lists[attr.Name]
	if !ok {
		out = make([]string, 0, len(attr.DomainPhrases))
		for p := range attr.DomainPhrases {
			out = append(out, p)
		}
		sort.Strings(out)
		o.lists[attr.Name] = out
	}
	return out
}

func (o *InterpretOracle) oraclePhraseRep(phrase string) embedding.Vector {
	v, ok := o.reps[phrase]
	if !ok {
		v = o.db.Embed.Rep(phrase)
		o.reps[phrase] = v
	}
	return v
}

// oracleCooccur is cooccurStage.prepare + interpret for one threshold.
func (o *InterpretOracle) oracleCooccur(p *phrase, threshold float64) (Interpretation, bool) {
	db := o.db
	toks := p.tokens()
	informativeGate := false
	var informative []string
	for _, t := range toks {
		if textproc.IsStopword(t) || db.ReviewIndex.DF(t) == 0 {
			continue
		}
		if db.ReviewIndex.IDF(t) >= db.cfg.CooccurMinIDF {
			informative = append(informative, t)
		}
	}
	if len(informative) > 0 {
		toks, informativeGate = informative, true
	}
	if !informativeGate && threshold >= 0 {
		return Interpretation{}, false
	}
	mined := o.oracleMineCooccur(toks)
	if !mined.ok || mined.conf < threshold {
		return Interpretation{}, false
	}
	return Interpretation{
		Predicate:   p.text,
		Method:      MethodCooccur,
		Terms:       mined.terms,
		Disjunction: mined.disjunction,
		Similarity:  mined.conf,
	}, true
}

func (o *InterpretOracle) oracleMineCooccur(toks []string) *cooccurMined {
	db := o.db
	boost := func(reviewID string) float64 {
		s := db.ReviewSentiments[reviewID]
		if s <= 0 {
			return 0 // only positive reviews participate (§3.2)
		}
		return s
	}
	top := oracleSearchBoosted(o.index, toks, db.cfg.CooccurTopK, boost)
	if len(top) == 0 {
		return &cooccurMined{}
	}
	freq := map[string]float64{}
	markerFreq := map[string]map[int]float64{}
	reviewsWithAttr := map[string]map[string]bool{}
	for _, r := range top {
		for _, ext := range o.extByReview[r.ID] {
			freq[ext.Attribute]++
			if markerFreq[ext.Attribute] == nil {
				markerFreq[ext.Attribute] = map[int]float64{}
			}
			markerFreq[ext.Attribute][ext.Marker]++
			if reviewsWithAttr[r.ID] == nil {
				reviewsWithAttr[r.ID] = map[string]bool{}
			}
			reviewsWithAttr[r.ID][ext.Attribute] = true
		}
	}
	if len(freq) == 0 {
		return &cooccurMined{}
	}
	type scored struct {
		attr  string
		score float64
	}
	var ranked []scored
	for a, f := range freq {
		idf := math.Log(float64(o.positiveReviews+1) / float64(o.reviewsWithAttrCount[a]+1))
		if idf < 0.05 {
			idf = 0.05 // ubiquitous attributes still carry some signal
		}
		ranked = append(ranked, scored{attr: a, score: f * idf})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].score != ranked[j].score {
			return ranked[i].score > ranked[j].score
		}
		return ranked[i].attr < ranked[j].attr
	})
	n := db.cfg.CooccurTopN
	if n > len(ranked) {
		n = len(ranked)
	}
	ratioOf := func(a string) float64 {
		var obs float64
		for _, attrs := range reviewsWithAttr {
			if attrs[a] {
				obs++
			}
		}
		exp := float64(len(top)) * float64(o.reviewsWithAttrCount[a]) / float64(o.positiveReviews+1)
		return obs / (exp + 1)
	}
	allRatios := make([]float64, 0, len(db.Attrs))
	for _, attr := range db.Attrs {
		allRatios = append(allRatios, ratioOf(attr.Name))
	}
	sort.Float64s(allRatios)
	median := allRatios[len(allRatios)/2]
	conf := 0.0
	for i := 0; i < n; i++ {
		if r := ratioOf(ranked[i].attr); median > 0 && r/median-1 > conf {
			conf = r/median - 1
		}
	}
	terms := make([]AttrMarker, 0, n)
	for i := 0; i < n; i++ {
		a := ranked[i].attr
		attr := db.Attr(a)
		best, bestF := 0, -1.0
		for m, f := range markerFreq[a] {
			w := f * (1 + math.Max(0, attr.Markers[m].Sentiment))
			if w > bestF || (w == bestF && m < best) {
				best, bestF = m, w
			}
		}
		terms = append(terms, AttrMarker{Attr: a, Marker: best})
	}
	disjunction := true
	if len(terms) == 2 {
		joint, either := 0, 0
		for _, attrs := range reviewsWithAttr {
			a0, a1 := attrs[terms[0].Attr], attrs[terms[1].Attr]
			if a0 || a1 {
				either++
			}
			if a0 && a1 {
				joint++
			}
		}
		if either > 0 && float64(joint)/float64(either) > 0.5 {
			disjunction = false
		}
	}
	return &cooccurMined{ok: true, terms: terms, disjunction: disjunction, conf: conf}
}

// oracleResultHeap and oracleSearchBoosted are ir's pre-kernel top-k search
// (score map, container/heap, boost by external id) over the index's
// exported state.
type oracleResultHeap []ir.Result

func (h oracleResultHeap) Len() int { return len(h) }
func (h oracleResultHeap) Less(i, j int) bool {
	if h[i].Score != h[j].Score {
		return h[i].Score < h[j].Score
	}
	return h[i].ID > h[j].ID
}
func (h oracleResultHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *oracleResultHeap) Push(x interface{}) { *h = append(*h, x.(ir.Result)) }
func (h *oracleResultHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

func oracleSearchBoosted(ix ir.IndexState, query []string, k int, boost func(id string) float64) []ir.Result {
	const k1, b = 1.2, 0.75
	if k <= 0 || len(ix.DocLen) == 0 {
		return nil
	}
	scores := make(map[int]float64)
	avg := float64(ix.TotalLen) / float64(len(ix.DocLen))
	seen := make(map[string]bool, len(query))
	for _, term := range query {
		if seen[term] {
			continue // query terms are deduplicated, standard BM25 practice
		}
		seen[term] = true
		plist, ok := ix.Postings[term]
		if !ok {
			continue
		}
		n := float64(len(plist))
		N := float64(len(ix.DocLen))
		idf := math.Log(1 + (N-n+0.5)/(n+0.5))
		for _, p := range plist {
			tf := float64(p.TF)
			dl := float64(ix.DocLen[p.Doc])
			scores[int(p.Doc)] += idf * tf * (k1 + 1) / (tf + k1*(1-b+b*dl/avg))
		}
	}
	h := make(oracleResultHeap, 0, k+1)
	heap.Init(&h)
	for doc, s := range scores {
		id := ix.DocIDs[doc]
		if boost != nil {
			s *= boost(id)
		}
		if s <= 0 {
			continue
		}
		heap.Push(&h, ir.Result{ID: id, Score: s})
		if h.Len() > k {
			heap.Pop(&h)
		}
	}
	out := make([]ir.Result, h.Len())
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(&h).(ir.Result)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].ID < out[j].ID
	})
	return out
}
