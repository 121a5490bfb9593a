package core

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

func (db *DB) execute(q *sqlparse.Query, opts QueryOptions, extraObjective func(string) bool, resolved map[string]Interpretation) (*QueryResult, error) {
	entities, err := db.Rel.Table("Entities")
	if err != nil {
		return nil, err
	}
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
	var filter *extractionFilter
	if opts.ReviewFilter != nil {
		filter = &extractionFilter{fn: opts.ReviewFilter}
	}

	var rows []ResultRow
	for _, id := range db.entityIDs {
		row := entities.ByKey(id)
		if len(row) == 0 {
			continue
		}
		if extraObjective != nil && !extraObjective(id) {
			continue
		}
		expr, err := db.compileCond(q.Where, entities, row[0])
		if err != nil {
			return nil, err
		}
		predScores := map[string]float64{}
		env := func(text string) float64 {
			if s, ok := predScores[text]; ok {
				return s
			}
			s := db.degreeOf(id, interps[text], queryReps[text], queryToks[text], opts, filter)
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
		if err := sortByColumn(rows, entities, q.OrderBy, q.OrderDesc); err != nil {
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
func (db *DB) degreeOf(entityID string, in Interpretation, qRep embedding.Vector, qToks []string, opts QueryOptions, filter *extractionFilter) float64 {
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
			d = db.Membership.DegreeMarker(db, entityID, attr, term.Marker, qRep)
		default:
			d = db.Membership.DegreeScan(db, entityID, attr, qRep, nil)
		}
		if w, ok := opts.AttributeWeights[term.Attr]; ok && w > 0 {
			d = math.Pow(d, w)
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
func (db *DB) compileCond(c sqlparse.Cond, entities *relstore.Table, row relstore.Row) (fuzzy.Expr, error) {
	if c == nil {
		return nil, nil
	}
	switch t := c.(type) {
	case sqlparse.SubjCond:
		return fuzzy.Pred{ID: t.Text}, nil
	case sqlparse.CmpCond:
		ok, err := evalCmp(t, entities, row)
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
			e, err := db.compileCond(ch, entities, row)
			if err != nil {
				return nil, err
			}
			children = append(children, e)
		}
		return fuzzy.NewAnd(children...), nil
	case sqlparse.OrCond:
		children := make([]fuzzy.Expr, 0, len(t.Children))
		for _, ch := range t.Children {
			e, err := db.compileCond(ch, entities, row)
			if err != nil {
				return nil, err
			}
			children = append(children, e)
		}
		return fuzzy.NewOr(children...), nil
	case sqlparse.NotCond:
		e, err := db.compileCond(t.Child, entities, row)
		if err != nil {
			return nil, err
		}
		return fuzzy.Not{Child: e}, nil
	default:
		return nil, fmt.Errorf("core: unknown condition %T", c)
	}
}

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
		eRows := entities.ByKey(r.EntityID)
		if len(eRows) == 0 {
			continue
		}
		v, err := entities.Get(eRows[0], col)
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
type extractionFilter struct {
	fn    func(reviewer string, day int) bool
	cache map[string]bool
}

func (f *extractionFilter) predicate() func(*Extraction) bool {
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
