package core

// The scoring code as it stood before the compiled plan and the shared
// term kernel replaced it, kept verbatim (names prefixed, the degree-list
// memo bypassed) as the reference the kernel is compared against bit for
// bit in kernel_test.go. Test-only: nothing here is built into the package.

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/embedding"
	"repro/internal/fuzzy"
	"repro/internal/ir"
	"repro/internal/relstore"
	"repro/internal/sqlparse"
	"repro/internal/textproc"
)

// Seams for the external test package, which owns the fixture database.

func (db *DB) OracleExecute(q *sqlparse.Query, opts QueryOptions, objective func(string) bool) (*QueryResult, error) {
	return db.oracleExecute(q, opts, objective, nil)
}

func (db *DB) OracleTopK(predicates []string, k int) ([]ResultRow, TopKStats, error) {
	return db.oracleTopK(predicates, k, nil)
}

func (db *DB) OracleMarkerFeatures(attr *SubjectiveAttribute, entityID string, marker int, q embedding.Vector) []float64 {
	return oracleMarkerFeatures(db, attr, entityID, marker, q)
}

func (db *DB) OracleDegreeMarker(attr *SubjectiveAttribute, entityID string, marker int, q embedding.Vector) float64 {
	return db.Membership.oracleDegreeMarker(db, entityID, attr, marker, q)
}

// KernelMarkerFeatures is the feature vector the term kernel computes.
func (db *DB) KernelMarkerFeatures(attr *SubjectiveAttribute, entityID string, marker int, q embedding.Vector) []float64 {
	t := db.newMarkerTerm(attr, marker, q)
	f := t.features(t.summaries[entityID])
	return f[:]
}

// UseHeuristicMembership drops the trained membership functions, leaving
// the calibrated heuristics. Call it on a clone, never on the fixture.
func (db *DB) UseHeuristicMembership() { db.Membership = &MembershipModel{} }

// CachedDegreeList returns the memoized TA list for A.m, if there is one.
func (db *DB) CachedDegreeList(am AttrMarker) (entities []string, degrees []float64, ok bool) {
	src, ok := db.degreeLists.get(am.String())
	if !ok {
		return nil, nil, false
	}
	for _, e := range src.list {
		entities = append(entities, e.entity)
		degrees = append(degrees, e.degree)
	}
	return entities, degrees, true
}

// SelectTop is the bounded selection execute and TA rank with.
func SelectTop(rows []ResultRow, k int) []ResultRow {
	var top []ResultRow
	for _, r := range rows {
		top = insertTop(top, r, k)
	}
	return top
}

// ---- the pre-kernel code, verbatim ----

// DegreeMarker computes the degree of truth of interpreted predicate
// attr.marker for an entity using only the marker summary (the fast path
// accelerated by precomputation, §3.3).
func (mm *MembershipModel) oracleDegreeMarker(db *DB, entityID string, attr *SubjectiveAttribute, marker int, queryRep embedding.Vector) float64 {
	s := db.Summary(attr.Name, entityID)
	if s == nil || s.Total == 0 {
		return 0 // no evidence at all: definitively false, not model bias
	}
	feats := oracleMarkerFeatures(db, attr, entityID, marker, queryRep)
	if mm.markerLR != nil {
		return mm.markerLR.Prob(feats)
	}
	return heuristicFromMarkerFeatures(feats)
}

// markerFeatures builds the fast-path feature vector from the summary:
// mass near the target marker, support size, overall sentiment, target
// marker sentiment, sentiment-mass alignment, and centroid similarity.
func oracleMarkerFeatures(db *DB, attr *SubjectiveAttribute, entityID string, marker int, queryRep embedding.Vector) []float64 {
	s := db.Summary(attr.Name, entityID)
	feats := make([]float64, markerFeatureCount)
	if s == nil || s.Total == 0 || marker < 0 || marker >= len(attr.Markers) {
		return feats
	}
	k := len(attr.Markers)
	// f0: mass at/near the target marker. Linear attributes credit
	// adjacent markers with decayed weight; categorical only exact.
	var mass float64
	for i := 0; i < k; i++ {
		w := 0.0
		if attr.Categorical {
			if i == marker {
				w = 1
			}
		} else {
			d := float64(abs(i - marker))
			w = math.Max(0, 1-d/2.5)
		}
		mass += w * s.Counts[i]
	}
	feats[0] = mass / s.Total
	// f1: support (log-scaled total phrase count).
	feats[1] = math.Log1p(s.Total) / 6
	// f2: overall average sentiment of the entity's phrases for this attr.
	var sentSum float64
	for i := 0; i < k; i++ {
		sentSum += s.SentSum[i]
	}
	feats[2] = sentSum / s.Total
	// f3: target marker's own sentiment (is the user asking for the good
	// end of the scale?).
	feats[3] = attr.Markers[marker].Sentiment
	// f4: sentiment-weighted mass — how much of the mass sits at markers at
	// least as sentiment-close to the target as a small tolerance.
	var aligned float64
	for i := 0; i < k; i++ {
		if math.Abs(attr.Markers[i].Sentiment-attr.Markers[marker].Sentiment) <= 0.25 {
			aligned += s.Counts[i]
		}
	}
	feats[4] = aligned / s.Total
	// f5: cosine between the query phrase and the entity's phrase centroid
	// at the target marker.
	if queryRep != nil {
		feats[5] = embedding.Cosine(queryRep, s.Centroid(marker))
	}
	return feats
}

func (db *DB) oracleExecute(q *sqlparse.Query, opts QueryOptions, extraObjective func(string) bool, resolved map[string]Interpretation) (*QueryResult, error) {
	entities := db.Rel
	// Interpret every subjective predicate once per query (§3.2). A
	// fallback predicate is scored from its tokens, every other one from
	// its Eq. 1 representation; both come from the phrase the interpreter
	// already tokenized.
	interps := map[string]Interpretation{}
	queryReps := map[string]embedding.Vector{}
	queryToks := map[string][]string{}
	for _, text := range sqlparse.SubjectivePredicates(q.Where) {
		if _, done := interps[text]; done {
			continue
		}
		p := &phrase{text: text}
		in, ok := resolved[text]
		if !ok {
			in = db.interpretPhrase(p)
		}
		interps[text] = in
		if in.Method == MethodFallback {
			queryToks[text] = p.tokens()
		} else {
			queryReps[text] = p.repIn(db.Embed)
		}
	}

	// Compile the condition tree to a fuzzy expression template. Objective
	// comparisons become per-entity constants, resolved in the closure.
	var filter *oracleExtractionFilter
	if opts.ReviewFilter != nil {
		filter = &oracleExtractionFilter{fn: opts.ReviewFilter}
	}

	var rows []ResultRow
	for _, id := range db.entityIDs {
		e, ok := entities.Find(id)
		if !ok {
			continue
		}
		if extraObjective != nil && !extraObjective(id) {
			continue
		}
		expr, err := db.oracleCompileCond(q.Where, entities, entities.Row(e))
		if err != nil {
			return nil, err
		}
		predScores := map[string]float64{}
		env := func(text string) float64 {
			if s, ok := predScores[text]; ok {
				return s
			}
			s := db.oracleDegreeOf(id, interps[text], queryReps[text], queryToks[text], opts, filter)
			predScores[text] = s
			return s
		}
		score := 1.0
		if expr != nil {
			score = expr.Eval(db.fuzzyVariant(), env)
		}
		if score <= 0 {
			continue
		}
		rows = append(rows, ResultRow{EntityID: id, Score: score, PredicateScores: predScores})
	}

	// Rank: by fuzzy score desc (the subjective default) or by an explicit
	// ORDER BY column.
	if q.OrderBy != "" {
		if err := oracleSortByColumn(rows, entities, q.OrderBy, q.OrderDesc); err != nil {
			return nil, err
		}
	} else {
		sort.SliceStable(rows, func(i, j int) bool {
			if rows[i].Score != rows[j].Score {
				return rows[i].Score > rows[j].Score
			}
			return rows[i].EntityID < rows[j].EntityID
		})
	}
	// An explicit LIMIT in the SQL wins; opts.TopK is the default cap for
	// queries without one.
	limit := opts.TopK
	if q.Limit > 0 {
		limit = q.Limit
	}
	if limit > 0 && len(rows) > limit {
		rows = rows[:limit]
	}
	return &QueryResult{
		Rows:            rows,
		Interpretations: interps,
		Rewritten:       db.rewrite(q.Where, interps),
	}, nil
}

// degreeOf computes one predicate's degree of truth for one entity
// according to its interpretation (§3.3).
func (db *DB) oracleDegreeOf(entityID string, in Interpretation, qRep embedding.Vector, qToks []string, opts QueryOptions, filter *oracleExtractionFilter) float64 {
	if in.Method == MethodFallback {
		// sigmoid(BM25(D, q) − c) over the entity document (§3.2).
		return ir.Sigmoid(db.EntityIndex.Score(entityID, qToks), db.cfg.FallbackCenter)
	}
	var degrees []float64
	for _, term := range in.Terms {
		attr := db.Attr(term.Attr)
		if attr == nil {
			continue
		}
		var d float64
		switch {
		case filter != nil:
			d = db.Membership.DegreeScan(db, entityID, attr, qRep, filter.predicate())
		case opts.UseMarkers:
			d = db.Membership.oracleDegreeMarker(db, entityID, attr, term.Marker, qRep)
		default:
			d = db.Membership.DegreeScan(db, entityID, attr, qRep, nil)
		}
		degrees = append(degrees, d)
	}
	if len(degrees) == 0 {
		return 0
	}
	v := db.fuzzyVariant()
	acc := degrees[0]
	for _, d := range degrees[1:] {
		if in.Disjunction {
			acc = v.Or(acc, d)
		} else {
			acc = v.And(acc, d)
		}
	}
	return acc
}

// compileCond translates the parsed WHERE tree into a fuzzy expression for
// one entity row: objective comparisons fold to Const 0/1, subjective
// predicates stay symbolic.
func (db *DB) oracleCompileCond(c sqlparse.Cond, entities *relstore.Table, row relstore.Row) (fuzzy.Expr, error) {
	if c == nil {
		return nil, nil
	}
	switch t := c.(type) {
	case sqlparse.SubjCond:
		return fuzzy.Pred{ID: t.Text}, nil
	case sqlparse.CmpCond:
		ok, err := oracleEvalCmp(t, entities, row)
		if err != nil {
			return nil, err
		}
		if ok {
			return fuzzy.Const{Value: 1}, nil
		}
		return fuzzy.Const{Value: 0}, nil
	case sqlparse.AndCond:
		children := make([]fuzzy.Expr, 0, len(t.Children))
		for _, ch := range t.Children {
			e, err := db.oracleCompileCond(ch, entities, row)
			if err != nil {
				return nil, err
			}
			children = append(children, e)
		}
		return fuzzy.NewAnd(children...), nil
	case sqlparse.OrCond:
		children := make([]fuzzy.Expr, 0, len(t.Children))
		for _, ch := range t.Children {
			e, err := db.oracleCompileCond(ch, entities, row)
			if err != nil {
				return nil, err
			}
			children = append(children, e)
		}
		return fuzzy.NewOr(children...), nil
	case sqlparse.NotCond:
		e, err := db.oracleCompileCond(t.Child, entities, row)
		if err != nil {
			return nil, err
		}
		return fuzzy.Not{Child: e}, nil
	default:
		return nil, fmt.Errorf("core: unknown condition %T", c)
	}
}

// oracleGet returns the value of the named column in row.
func oracleGet(entities *relstore.Table, row relstore.Row, col string) (interface{}, error) {
	i, _, err := entities.Column(col)
	if err != nil {
		return nil, err
	}
	return row[i], nil
}

// evalCmp evaluates an objective comparison against an entity row.
func oracleEvalCmp(c sqlparse.CmpCond, entities *relstore.Table, row relstore.Row) (bool, error) {
	v, err := oracleGet(entities, row, c.Column)
	if err != nil {
		return false, err
	}
	if v == nil {
		return false, nil // SQL NULL semantics: unknown comparisons filter out
	}
	switch want := c.Value.(type) {
	case float64:
		var have float64
		switch x := v.(type) {
		case float64:
			have = x
		case int64:
			have = float64(x)
		default:
			return false, fmt.Errorf("core: column %s is not numeric", c.Column)
		}
		switch c.Op {
		case "<":
			return have < want, nil
		case "<=":
			return have <= want, nil
		case ">":
			return have > want, nil
		case ">=":
			return have >= want, nil
		case "=":
			return have == want, nil
		case "!=":
			return have != want, nil
		}
	case string:
		have, ok := v.(string)
		if !ok {
			return false, fmt.Errorf("core: column %s is not a string", c.Column)
		}
		switch c.Op {
		case "=":
			return strings.EqualFold(have, want), nil
		case "!=":
			return !strings.EqualFold(have, want), nil
		default:
			return false, fmt.Errorf("core: operator %s not supported for strings", c.Op)
		}
	}
	return false, fmt.Errorf("core: unsupported comparison %v", c)
}

// sortByColumn orders result rows by an objective column.
func oracleSortByColumn(rows []ResultRow, entities *relstore.Table, col string, desc bool) error {
	key := make(map[string]float64, len(rows))
	for _, r := range rows {
		e, ok := entities.Find(r.EntityID)
		if !ok {
			continue
		}
		v, err := oracleGet(entities, entities.Row(e), col)
		if err != nil {
			return err
		}
		switch x := v.(type) {
		case float64:
			key[r.EntityID] = x
		case int64:
			key[r.EntityID] = float64(x)
		default:
			return fmt.Errorf("core: cannot ORDER BY non-numeric column %s", col)
		}
	}
	sort.SliceStable(rows, func(i, j int) bool {
		a, b := key[rows[i].EntityID], key[rows[j].EntityID]
		if a != b {
			if desc {
				return a > b
			}
			return a < b
		}
		return rows[i].EntityID < rows[j].EntityID
	})
	return nil
}

// degreeList returns the (cached) entity list for an interpreted A.m,
// sorted by descending precomputed degree. The precomputation uses the
// marker's own centroid as the query representation — exactly the
// "degree of truth for variations in the linguistic domain".
func (db *DB) oracleDegreeList(am AttrMarker) []entityDegree {
	return func() []entityDegree {
		attr := db.Attr(am.Attr)
		list := make([]entityDegree, 0, len(db.entityIDs))
		if attr != nil && am.Marker >= 0 && am.Marker < len(attr.Markers) {
			rep := attr.Markers[am.Marker].Centroid
			for _, id := range db.entityIDs {
				list = append(list, entityDegree{
					entity: id,
					degree: db.Membership.oracleDegreeMarker(db, id, attr, am.Marker, rep),
				})
			}
		}
		sort.Slice(list, func(i, j int) bool {
			if list[i].degree != list[j].degree {
				return list[i].degree > list[j].degree
			}
			return list[i].entity < list[j].entity
		})
		return list
	}()
}

// TopKThresholdResolved is TopKThreshold over predicates the caller has
// (partly) interpreted already, under ExecuteResolved's contract.
func (db *DB) oracleTopK(predicates []string, k int, resolved map[string]Interpretation) ([]ResultRow, TopKStats, error) {
	var stats TopKStats
	if k <= 0 {
		k = 10
	}
	sources := make([]*taSource, 0, len(predicates))
	for _, text := range predicates {
		in, ok := resolved[text]
		if !ok {
			in = db.Interpret(text)
		}
		src, err := db.oracleTASourceFor(text, in)
		if err != nil {
			return nil, stats, err
		}
		sources = append(sources, src)
	}
	if len(sources) == 0 {
		return nil, stats, nil
	}

	v := db.fuzzyVariant()
	aggregate := func(entity string) float64 {
		score := 1.0
		for _, s := range sources {
			score = v.And(score, s.degree[entity])
		}
		return score
	}

	seen := map[string]bool{}
	var top []ResultRow
	worstTop := func() float64 {
		if len(top) < k {
			return -1
		}
		return top[len(top)-1].Score
	}
	insert := func(entity string, score float64) {
		row := ResultRow{EntityID: entity, Score: score}
		pos := sort.Search(len(top), func(i int) bool {
			if top[i].Score != score {
				return top[i].Score < score
			}
			return top[i].EntityID > entity
		})
		top = append(top, ResultRow{})
		copy(top[pos+1:], top[pos:])
		top[pos] = row
		if len(top) > k {
			top = top[:k]
		}
	}

	maxLen := 0
	for _, s := range sources {
		if len(s.list) > maxLen {
			maxLen = len(s.list)
		}
	}
	for depth := 0; depth < maxLen; depth++ {
		threshold := 1.0
		progressed := false
		for _, s := range sources {
			if depth >= len(s.list) {
				threshold = v.And(threshold, 0)
				continue
			}
			progressed = true
			stats.SortedAccesses++
			entry := s.list[depth]
			threshold = v.And(threshold, entry.degree)
			if !seen[entry.entity] {
				seen[entry.entity] = true
				stats.Candidates++
				if score := aggregate(entry.entity); score > 0 {
					insert(entry.entity, score)
				}
			}
		}
		stats.Depth = depth + 1
		// TA stop condition, deliberately strict: stop only once the k-th
		// best aggregate EXCEEDS the threshold. The classic >= stop admits
		// a boundary ambiguity — an unseen entity whose aggregate exactly
		// equals the k-th score could be kept or dropped depending on list
		// order — which would make the result depend on how the entity
		// space is partitioned. Strict comparison guarantees every unseen
		// entity is strictly worse than the whole top-k, so a sharded
		// deployment's merged top-k is byte-identical to the monolith's.
		// Tradeoff, accepted deliberately: a persistent exact tie between
		// the k-th score and the threshold (e.g. membership degrees
		// saturating at exactly 1.0 for >= k entities) keeps TA scanning to
		// the end of the lists — worst-case O(n), the same bound as the
		// full-scan /query path — because enumerating every potential tie
		// is precisely what deployment-invariance requires.
		if !progressed || (len(top) >= k && worstTop() > threshold) {
			break
		}
	}
	return top, stats, nil
}

// taSourceFor materializes the TA access structure for one interpreted
// predicate.
func (db *DB) oracleTASourceFor(text string, in Interpretation) (*taSource, error) {
	v := db.fuzzyVariant()
	switch {
	case in.Method == MethodFallback:
		// Fallback predicates have no precomputed lists; score all
		// entities once (they rarely dominate the conjunction anyway).
		toks := textproc.Tokenize(text)
		list := make([]entityDegree, 0, len(db.entityIDs))
		for _, id := range db.entityIDs {
			list = append(list, entityDegree{
				entity: id,
				degree: ir.Sigmoid(db.EntityIndex.Score(id, toks), db.cfg.FallbackCenter),
			})
		}
		sort.Slice(list, func(i, j int) bool {
			if list[i].degree != list[j].degree {
				return list[i].degree > list[j].degree
			}
			return list[i].entity < list[j].entity
		})
		return oracleSourceFromList(list), nil
	case len(in.Terms) == 1:
		return oracleSourceFromList(db.oracleDegreeList(in.Terms[0])), nil
	default:
		// Multi-term interpretation: merge the per-term lists under the
		// interpretation's connective.
		merged := map[string]float64{}
		for ti, term := range in.Terms {
			for _, e := range db.oracleDegreeList(term) {
				if ti == 0 {
					merged[e.entity] = e.degree
				} else if in.Disjunction {
					merged[e.entity] = v.Or(merged[e.entity], e.degree)
				} else {
					merged[e.entity] = v.And(merged[e.entity], e.degree)
				}
			}
		}
		list := make([]entityDegree, 0, len(merged))
		for id, d := range merged {
			list = append(list, entityDegree{entity: id, degree: d})
		}
		sort.Slice(list, func(i, j int) bool {
			if list[i].degree != list[j].degree {
				return list[i].degree > list[j].degree
			}
			return list[i].entity < list[j].entity
		})
		return oracleSourceFromList(list), nil
	}
}

func oracleSourceFromList(list []entityDegree) *taSource {
	m := make(map[string]float64, len(list))
	for _, e := range list {
		m[e.entity] = e.degree
	}
	return &taSource{list: list, degree: m}
}

// extractionFilter adapts a reviewer/day predicate to extraction records,
// caching per-reviewer decisions.
type oracleExtractionFilter struct {
	fn    func(reviewer string, day int) bool
	cache map[string]bool
}

func (f *oracleExtractionFilter) predicate() func(*Extraction) bool {
	if f.cache == nil {
		f.cache = map[string]bool{}
	}
	return func(e *Extraction) bool {
		key := e.Reviewer + "|" + fmt.Sprint(e.Day)
		if v, ok := f.cache[key]; ok {
			return v
		}
		v := f.fn(e.Reviewer, e.Day)
		f.cache[key] = v
		return v
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
