package core

// The prepare/apply split of the incremental-enrichment delta. ApplyReview
// does two very different kinds of work: the expensive linguistic half
// (tokenization, sentence splitting, perceptron extraction, nearest-
// domain-variation classification, phrase sentiment) reads only the
// frozen build-time model, while the cheap half folds the results into
// the mutable serving state (indexes, marker summaries, review statistics).
// Splitting them lets a concurrent write pipeline run the linguistic half
// in parallel request handlers and keep only the fold on the serialized
// path — the group-commit write path in internal/server is built on
// exactly this seam.

import (
	"fmt"

	"repro/internal/sentiment"
	"repro/internal/textproc"
)

// preparedExtraction is one classified opinion awaiting its fold. The
// extraction ID is deliberately absent: IDs are positions in the review →
// opinion table and can only be assigned at fold time, when the apply
// order is known.
type preparedExtraction struct {
	attr      *SubjectiveAttribute
	aspect    string
	phrase    string // full phrase (aspect-qualified)
	marker    int
	sentiment float64
}

// PreparedReview is the staged form of one review delta: everything
// ApplyReview derives from the review text and the frozen model,
// computed ahead of the fold. Build one with PrepareReview and fold it
// with ApplyPrepared.
type PreparedReview struct {
	rv    ReviewData
	toks  []string
	senti float64
	exts  []preparedExtraction
}

// Review returns the raw review this preparation was built from.
func (p *PreparedReview) Review() ReviewData { return p.rv }

// PrepareReview runs the model-frozen half of ApplyReview: tokenization,
// sentence-level opinion extraction, and nearest-domain-variation
// classification. It reads only immutable build products (the extractor,
// embedding model, schema and their memo caches), so any number of
// goroutines may prepare concurrently — including while another
// goroutine folds earlier deltas with ApplyPrepared. It performs no
// duplicate or ownership checks: those depend on mutable state and
// belong to the fold.
func (db *DB) PrepareReview(rv ReviewData) (*PreparedReview, error) {
	if rv.ID == "" || rv.EntityID == "" {
		return nil, fmt.Errorf("core: review needs ID and EntityID")
	}
	p := &PreparedReview{rv: rv}
	p.toks = textproc.Tokenize(rv.Text)
	p.senti = sentiment.ScoreTokens(p.toks)
	for _, sent := range textproc.Sentences(rv.Text) {
		sToks := textproc.Tokenize(sent)
		if len(sToks) == 0 {
			continue
		}
		for _, op := range db.Extractor.Extract(sToks) {
			if op.Phrase == "" {
				continue
			}
			full := op.Phrase
			if op.Aspect != "" {
				full = op.Aspect + " " + op.Phrase
			}
			// Classify by nearest linguistic variation: at serving time the
			// domain is fixed, so membership in it is the schema gate.
			attr, marker, sim := db.nearestDomainVariation(full)
			if attr == nil || sim < db.cfg.W2VThreshold {
				continue
			}
			p.exts = append(p.exts, preparedExtraction{
				attr:      attr,
				aspect:    op.Aspect,
				phrase:    full,
				marker:    marker,
				sentiment: sentiment.ScorePhrase(op.Phrase),
			})
		}
	}
	return p, nil
}

// ApplyPrepared folds one prepared delta into the serving state. It is
// the mutating half of ApplyReview and carries the same determinism
// contract: folding the same prepared reviews in the same order yields
// byte-identical query state. Callers serialize it against every reader
// and against other folds (the server's write lock); the duplicate check
// lives here, not in PrepareReview, because it reads mutable state. It
// is the fold's only failure: past it, the delta always lands whole.
func (db *DB) ApplyPrepared(p *PreparedReview) error {
	rv := p.rv
	if _, exists := db.ReviewSentiments[rv.ID]; exists {
		return fmt.Errorf("core: review %s already ingested", rv.ID)
	}

	owned := db.ServesEntity(rv.EntityID)
	db.ReviewSentiments[rv.ID] = p.senti
	db.reviewsPerReviewer[rv.Reviewer]++
	doc := db.ReviewIndex.Add(rv.ID, p.toks)
	db.reviewBoost = append(db.reviewBoost, reviewBoostOf(p.senti))
	if p.senti > 0 {
		db.positiveReviews++
	}

	// Every node records the review's opinions; only the owner keeps the
	// rows and folds them into a summary.
	for _, pe := range p.exts {
		id := len(db.ops)
		db.ops = append(db.ops, ReviewOpinion{Attr: int32(pe.attr.ord), Marker: int32(pe.marker)})
		if owned {
			db.extractions = append(db.extractions, Extraction{
				ID:        id,
				EntityID:  rv.EntityID,
				ReviewID:  rv.ID,
				Reviewer:  rv.Reviewer,
				Day:       rv.Day,
				Attribute: pe.attr.Name,
				Aspect:    pe.aspect,
				Phrase:    pe.phrase,
				Marker:    pe.marker,
				Sentiment: pe.sentiment,
			})
			db.addOwned(pe.attr, len(db.extractions)-1)
		}
	}
	db.opStart = append(db.opStart, int32(len(db.ops)))
	db.countReviewAttrs(doc)
	// Interpretations may shift with new evidence. A degree list is a
	// function of this node's own summaries, the frozen markers and the
	// frozen membership model, so only a write this node owns stales it.
	db.interpCache.reset()
	if owned {
		db.degreeLists.reset()
	}
	return nil
}
