package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/fuzzy"
	"repro/internal/ir"
	"repro/internal/relstore"
	"repro/internal/sqlparse"
)

// QueryOptions tune a single query execution.
type QueryOptions struct {
	// TopK caps the ranked result; 0 means the parsed LIMIT or all.
	TopK int
	// UseMarkers selects the fast marker-summary membership path (true,
	// the default used by OpineDB) or the no-marker scan path (false, the
	// Table 7 ablation).
	UseMarkers bool
	// ReviewFilter, when non-nil, restricts the reviews whose extractions
	// count toward degrees of truth — the §1.1 "only consider opinions of
	// people who reviewed at least 10 hotels" feature. Implies the scan
	// path for subjective predicates (summaries must be recomputed).
	ReviewFilter func(reviewer string, day int) bool
	// AttributeWeights personalizes ranking (§7's user-profile direction):
	// an interpreted predicate over attribute A has its degree of truth
	// raised to AttributeWeights[A]. Weights > 1 sharpen (the user cares a
	// lot: mediocre evidence hurts more), weights in (0,1) soften, and the
	// exponent form keeps the product t-norm's algebra intact
	// (d^w ∈ [0,1], monotone, and w=1 is a no-op).
	AttributeWeights map[string]float64
}

// DefaultQueryOptions returns the standard execution mode.
func DefaultQueryOptions() QueryOptions {
	return QueryOptions{TopK: 10, UseMarkers: true}
}

// ResultRow is one ranked entity with its final degree of truth and the
// per-predicate breakdown.
type ResultRow struct {
	EntityID string
	Score    float64
	// PredicateScores maps subjective predicate text → its degree of truth
	// for this entity.
	PredicateScores map[string]float64
}

// QueryResult is a ranked answer with interpretation diagnostics.
type QueryResult struct {
	Rows []ResultRow
	// Interpretations maps predicate text → how it was interpreted.
	Interpretations map[string]Interpretation
	// Rewritten is the fuzzy-SQL rendering of the compiled query, e.g.
	// "price_pn < 150 ⊗ room_cleanliness.8 ⊗ (service.4 ⊕ style.2)".
	Rewritten string
	// Stats is the scan's work; it appears in no serialized response.
	Stats QueryStats
}

// Query parses and executes a subjective SQL statement with default
// options, returning the fuzzy-ranked result (Figure 4's full flow).
func (db *DB) Query(sql string) (*QueryResult, error) {
	return db.QueryWithOptions(sql, DefaultQueryOptions())
}

// QueryWithOptions parses and executes a subjective SQL statement.
func (db *DB) QueryWithOptions(sql string, opts QueryOptions) (*QueryResult, error) {
	q, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	return db.Execute(q, opts)
}

// RankPredicates ranks entities for a bare conjunction of subjective
// predicate texts — the experiment harness's entry point, bypassing SQL.
func (db *DB) RankPredicates(predicates []string, objective func(entityID string) bool, opts QueryOptions) (*QueryResult, error) {
	cond := make([]sqlparse.Cond, 0, len(predicates))
	for _, p := range predicates {
		cond = append(cond, sqlparse.SubjCond{Text: p})
	}
	q := &sqlparse.Query{
		Select: []string{"*"},
		From:   "Entities",
		Where:  sqlparse.AndCond{Children: cond},
	}
	return db.execute(q, opts, objective, nil)
}

// Execute runs a parsed query.
func (db *DB) Execute(q *sqlparse.Query, opts QueryOptions) (*QueryResult, error) {
	return db.execute(q, opts, nil, nil)
}

// ExecuteResolved runs a parsed query whose predicates the caller has
// (partly) interpreted already: resolved maps predicate text to its
// interpretation, and Interpret resolves whatever is missing. The caller
// vouches that each entry is what Interpret would return on this database
// now (see CheckInterpretation for the shape check on untrusted entries);
// resolved entries are used for this call only and never memoized.
func (db *DB) ExecuteResolved(q *sqlparse.Query, opts QueryOptions, resolved map[string]Interpretation) (*QueryResult, error) {
	return db.execute(q, opts, nil, resolved)
}

// QueryStats reports how much work one executed query did, so a slow
// answer can be told apart from a wide scan.
type QueryStats struct {
	// EntitiesScanned counts the entities the WHERE tree was evaluated for.
	EntitiesScanned int
	// DegreesComputed counts membership evaluations: one per scanned entity
	// and interpreted term, plus one per fallback predicate.
	DegreesComputed int
}

// predicatePlan is one distinct subjective predicate of a query, readied
// for scoring every entity.
type predicatePlan struct {
	text        string
	disjunction bool
	terms       []markerTerm
	// fallback holds BM25(D, q) per entity, parallel to db.entityIDs, when
	// the predicate fell through to text retrieval; nil otherwise.
	fallback []float64
}

// queryPlan is a query's subjective predicates readied once for the whole
// scan, distinct and in first-appearance order; the compiled WHERE tree
// reads them by index. It lives for one execute call and is never retained.
type queryPlan struct {
	db         *DB
	preds      []predicatePlan
	useMarkers bool
	// filter, when non-nil, is the review qualification: degrees come from
	// the scan path over the extractions it admits.
	filter func(*Extraction) bool
}

// condNode is one compiled WHERE node. Subjective predicates read their
// degree by index from the entity's slice of the score slab; objective
// comparisons are evaluated against the entity's row.
type condNode struct {
	op       condOp
	pred     int
	cmp      sqlparse.CmpCond
	children []*condNode
}

type condOp int

const (
	condPred condOp = iota
	condCmp
	condAnd
	condOr
	condNot
)

func (db *DB) execute(q *sqlparse.Query, opts QueryOptions, extraObjective func(string) bool, resolved map[string]Interpretation) (*QueryResult, error) {
	entities, err := db.Rel.Table("Entities")
	if err != nil {
		return nil, err
	}
	// Interpret every subjective predicate once per query (§3.2). A
	// fallback predicate is scored from its tokens, every other one from
	// its Eq. 1 representation; both come from the phrase the interpreter
	// already tokenized.
	plan := &queryPlan{db: db, useMarkers: opts.UseMarkers}
	if opts.ReviewFilter != nil {
		plan.filter = extractionFilter(opts.ReviewFilter)
	}
	interps := map[string]Interpretation{}
	degreesPerEntity := 0
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
		pp := predicatePlan{text: text, disjunction: in.Disjunction}
		if in.Method == MethodFallback {
			pp.fallback = db.EntityIndex.ScoreDocs(db.entityIDs, p.tokens())
			degreesPerEntity++
		} else {
			rep := p.repIn(db.Embed)
			for _, term := range in.Terms {
				if attr := db.Attr(term.Attr); attr != nil {
					t := db.newMarkerTerm(attr, term.Marker, rep)
					if w, ok := opts.AttributeWeights[term.Attr]; ok && w > 0 {
						t.pow = w
					}
					pp.terms = append(pp.terms, t)
				}
			}
			degreesPerEntity += len(pp.terms)
		}
		plan.preds = append(plan.preds, pp)
	}
	where, err := plan.compile(q.Where) // nil without a WHERE clause
	if err != nil {
		return nil, err
	}

	// An explicit LIMIT in the SQL wins; opts.TopK is the default cap for
	// queries without one.
	limit := opts.TopK
	if q.Limit > 0 {
		limit = q.Limit
	}
	// Ranked by fuzzy score (the subjective default) under a limit, only
	// the best `limit` rows are ever held; rankBefore is a total order, so
	// that selection is the prefix a full sort would leave.
	bounded := q.OrderBy == "" && limit > 0

	// Scan entity-major: entity e's predicate degrees are
	// slab[e*np : (e+1)*np], kept so the returned rows can report them.
	np := len(plan.preds)
	slab := make([]float64, len(db.entityIDs)*np)
	var rows []ResultRow
	var stats QueryStats
	for e, id := range db.entityIDs {
		row := entities.FirstByKey(id)
		if len(row) == 0 {
			continue
		}
		if extraObjective != nil && !extraObjective(id) {
			continue
		}
		stats.EntitiesScanned++
		scores := slab[e*np : (e+1)*np]
		for pi := range plan.preds {
			scores[pi] = plan.degree(&plan.preds[pi], e, id)
		}
		score := 1.0
		if where != nil {
			if score, err = where.eval(db.fuzzyVariant(), scores, entities, row); err != nil {
				return nil, err
			}
		}
		if score <= 0 {
			continue
		}
		if bounded {
			rows = insertTop(rows, ResultRow{EntityID: id, Score: score}, limit)
		} else {
			rows = append(rows, ResultRow{EntityID: id, Score: score})
		}
	}
	stats.DegreesComputed = stats.EntitiesScanned * degreesPerEntity

	if q.OrderBy != "" {
		if err := sortByColumn(rows, entities, q.OrderBy, q.OrderDesc); err != nil {
			return nil, err
		}
	} else if !bounded {
		sort.Stable(rowSorter{rows, rankBefore})
	}
	if limit > 0 && len(rows) > limit {
		rows = rows[:limit]
	}
	for i := range rows {
		e := sort.SearchStrings(db.entityIDs, rows[i].EntityID)
		rows[i].PredicateScores = make(map[string]float64, np)
		for pi := range plan.preds {
			rows[i].PredicateScores[plan.preds[pi].text] = slab[e*np+pi]
		}
	}
	return &QueryResult{
		Rows:            rows,
		Interpretations: interps,
		Rewritten:       db.rewrite(q.Where, interps),
		Stats:           stats,
	}, nil
}

// degree computes one predicate's degree of truth for entity e (id is
// db.entityIDs[e]) according to its interpretation (§3.3).
func (p *queryPlan) degree(pp *predicatePlan, e int, id string) float64 {
	db := p.db
	if pp.fallback != nil {
		// sigmoid(BM25(D, q) − c) over the entity document (§3.2).
		return ir.Sigmoid(pp.fallback[e], db.cfg.FallbackCenter)
	}
	if len(pp.terms) == 0 {
		return 0
	}
	v := db.fuzzyVariant()
	var acc float64
	for ti := range pp.terms {
		t := &pp.terms[ti]
		var d float64
		switch {
		case p.filter != nil:
			d = db.Membership.DegreeScan(db, id, t.attr, t.q, p.filter)
		case p.useMarkers:
			d = db.Membership.degree(t, id)
		default:
			d = db.Membership.DegreeScan(db, id, t.attr, t.q, nil)
		}
		if t.pow > 0 {
			d = math.Pow(d, t.pow)
		}
		switch {
		case ti == 0:
			acc = d
		case pp.disjunction:
			acc = v.Or(acc, d)
		default:
			acc = v.And(acc, d)
		}
	}
	return acc
}

// compile translates the parsed WHERE tree into condNodes once per query.
// Conjunctions and disjunctions are flattened exactly as fuzzy.NewAnd and
// fuzzy.NewOr flatten them, so each left fold multiplies in the same order
// the expression tree always has.
func (p *queryPlan) compile(c sqlparse.Cond) (*condNode, error) {
	switch t := c.(type) {
	case nil:
		return nil, nil
	case sqlparse.SubjCond:
		pred := slices.IndexFunc(p.preds, func(pp predicatePlan) bool { return pp.text == t.Text })
		return &condNode{op: condPred, pred: pred}, nil
	case sqlparse.CmpCond:
		return &condNode{op: condCmp, cmp: t}, nil
	case sqlparse.AndCond:
		return p.compileJunction(condAnd, t.Children)
	case sqlparse.OrCond:
		return p.compileJunction(condOr, t.Children)
	case sqlparse.NotCond:
		child, err := p.compile(t.Child)
		if err != nil {
			return nil, err
		}
		return &condNode{op: condNot, children: []*condNode{child}}, nil
	default:
		return nil, fmt.Errorf("core: unknown condition %T", c)
	}
}

func (p *queryPlan) compileJunction(op condOp, children []sqlparse.Cond) (*condNode, error) {
	flat := make([]*condNode, 0, len(children))
	for _, ch := range children {
		n, err := p.compile(ch)
		if err != nil {
			return nil, err
		}
		if n.op == op {
			flat = append(flat, n.children...)
		} else {
			flat = append(flat, n)
		}
	}
	if len(flat) == 1 {
		return flat[0], nil
	}
	return &condNode{op: op, children: flat}, nil
}

// eval returns the node's degree of truth in [0,1] for one entity: scores
// holds the entity's predicate degrees, row its Entities tuple. Objective
// comparisons evaluate to exactly 0 or 1 and thus act as hard filters.
func (n *condNode) eval(v fuzzy.Variant, scores []float64, entities *relstore.Table, row relstore.Row) (float64, error) {
	switch n.op {
	case condPred:
		return clamp01(scores[n.pred]), nil
	case condCmp:
		ok, err := evalCmp(n.cmp, entities, row)
		if err != nil || !ok {
			return 0, err
		}
		return 1, nil
	case condNot:
		x, err := n.children[0].eval(v, scores, entities, row)
		return v.Not(x), err
	}
	// An empty conjunction is true, an empty disjunction false.
	acc := 1.0
	if n.op == condOr {
		acc = 0
	}
	for i, ch := range n.children {
		x, err := ch.eval(v, scores, entities, row)
		switch {
		case err != nil:
			return 0, err
		case i == 0:
			acc = x
		case n.op == condOr:
			acc = v.Or(acc, x)
		default:
			acc = v.And(acc, x)
		}
	}
	return acc, nil
}

// rankBefore is the engine's result order: fuzzy score descending, entity
// id ascending. Ids are unique, so it is a total order: the best k rows
// under it are the same rows whether they are selected or sorted.
func rankBefore(a, b *ResultRow) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.EntityID < b.EntityID
}

// insertTop inserts row into top, which is sorted under rankBefore and
// holds at most k rows, dropping whichever row then ranks last.
func insertTop(top []ResultRow, row ResultRow, k int) []ResultRow {
	if len(top) >= k {
		if !rankBefore(&row, &top[k-1]) {
			return top
		}
		top = top[:k-1]
	}
	pos := sort.Search(len(top), func(i int) bool { return rankBefore(&row, &top[i]) })
	top = append(top, ResultRow{})
	copy(top[pos+1:], top[pos:])
	top[pos] = row
	return top
}

// rowSorter sorts result rows under less without reflection.
type rowSorter struct {
	rows []ResultRow
	less func(a, b *ResultRow) bool
}

func (s rowSorter) Len() int           { return len(s.rows) }
func (s rowSorter) Less(i, j int) bool { return s.less(&s.rows[i], &s.rows[j]) }
func (s rowSorter) Swap(i, j int)      { s.rows[i], s.rows[j] = s.rows[j], s.rows[i] }

// evalCmp evaluates an objective comparison against an entity row.
func evalCmp(c sqlparse.CmpCond, entities *relstore.Table, row relstore.Row) (bool, error) {
	v, err := entities.Get(row, c.Column)
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
func sortByColumn(rows []ResultRow, entities *relstore.Table, col string, desc bool) error {
	key := make(map[string]float64, len(rows))
	for _, r := range rows {
		eRow := entities.FirstByKey(r.EntityID)
		if len(eRow) == 0 {
			continue
		}
		v, err := entities.Get(eRow, col)
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
	sort.Stable(rowSorter{rows, func(ra, rb *ResultRow) bool {
		a, b := key[ra.EntityID], key[rb.EntityID]
		if a != b {
			if desc {
				return a > b
			}
			return a < b
		}
		return ra.EntityID < rb.EntityID
	}})
	return nil
}

// rewrite renders the compiled fuzzy SQL for diagnostics, mirroring the
// paper's rewritten-query examples.
func (db *DB) rewrite(c sqlparse.Cond, interps map[string]Interpretation) string {
	if c == nil {
		return "true"
	}
	switch t := c.(type) {
	case sqlparse.SubjCond:
		return interps[t.Text].String()
	case sqlparse.CmpCond:
		return fmt.Sprintf("%s %s %v", t.Column, t.Op, t.Value)
	case sqlparse.AndCond:
		parts := make([]string, len(t.Children))
		for i, ch := range t.Children {
			parts[i] = db.rewrite(ch, interps)
		}
		return "(" + strings.Join(parts, " ⊗ ") + ")"
	case sqlparse.OrCond:
		parts := make([]string, len(t.Children))
		for i, ch := range t.Children {
			parts[i] = db.rewrite(ch, interps)
		}
		return "(" + strings.Join(parts, " ⊕ ") + ")"
	case sqlparse.NotCond:
		return "¬" + db.rewrite(t.Child, interps)
	default:
		return "?"
	}
}

// extractionFilter adapts a reviewer/day predicate to extraction records,
// caching per-reviewer decisions.
func extractionFilter(fn func(reviewer string, day int) bool) func(*Extraction) bool {
	cache := map[string]bool{}
	return func(e *Extraction) bool {
		key := e.Reviewer + "|" + fmt.Sprint(e.Day)
		v, ok := cache[key]
		if !ok {
			v = fn(e.Reviewer, e.Day)
			cache[key] = v
		}
		return v
	}
}
