package core

// Serialization seam for a built DB (the build-once / serve-many split).
//
// State() exports everything query processing needs that cannot be
// recomputed cheaply: the subjective schema with its linguistic domains
// and marker assignments, the marker summaries, the served entities'
// extraction rows, the review → opinion table, per-review sentiments,
// per-reviewer review counts, the membership model and the
// configuration. FromState() reconstructs a query-ready DB from that
// state plus the independently serialized subsystems (the Entities
// relation, embedding model, IR indexes, extractor tagger), rebuilding
// the derived state — attrByName, entityIDs, summary centroid norms, and
// through buildDerived (derived.go, the helper Build ends in too) the
// rows' access path, co-occurrence statistics, domain tables and
// review boost table — so a loaded DB answers every query
// byte-identically to the freshly built one. The query-time memo caches
// start empty; they are memos of pure functions of the restored state, so
// warming them changes latency, never results.

import (
	"fmt"

	"repro/internal/classify"
	"repro/internal/embedding"
	"repro/internal/extract"
	"repro/internal/ir"
	"repro/internal/relstore"
)

// AttributeState is the exported form of one SubjectiveAttribute,
// including the phrase→marker assignment that is private in the live
// type. Maps are shared with the live attribute, not copied — treat a
// state taken from a live DB as read-only.
type AttributeState struct {
	Name          string
	Categorical   bool
	Markers       []Marker
	DomainPhrases map[string]int
	PhraseMarker  map[string]int
}

// MembershipState is the exported form of the MembershipModel. The LogReg
// pointers are nil when the calibrated heuristics are in use; gob omits
// nil pointer fields, and decoding restores them as nil.
type MembershipState struct {
	MarkerLR       *classify.LogReg
	ScanLR         *classify.LogReg
	MarkerAccuracy float64
	ScanAccuracy   float64
}

// DBState is the exported core-database state: everything owned by this
// package that a snapshot must persist. The relational layer, embedding
// model, IR indexes and extractor tagger are serialized through their
// own packages' seams and rejoined in FromState.
type DBState struct {
	Name      string
	Cfg       Config
	Attrs     []AttributeState
	Summaries map[string]map[string]*MarkerSummary
	// Extractions holds the full extraction rows of the served entities,
	// ascending by id. FromState sets each row's ReviewID, Attribute and
	// Marker from its id's opinion, so a decoder may leave them zero.
	Extractions []Extraction
	// OpStart and Ops are the review → (attribute, marker) table of every
	// ReviewIndex document, served or not: document d carries
	// Ops[OpStart[d]:OpStart[d+1]], and extraction id i is Ops[i].
	OpStart          []int32
	Ops              []ReviewOpinion
	ReviewSentiments map[string]float64
	// ReviewsPerReviewer counts every ingested review by reviewer,
	// including reviews that yielded no extraction.
	ReviewsPerReviewer map[string]int
	Membership         MembershipState
}

// State exports the database for serialization. The returned state shares
// maps and slices with the live DB; the DB must not be mutated (AddReview,
// RebuildSummaries, ...) until encoding completes.
func (db *DB) State() *DBState {
	st := &DBState{
		Name:               db.Name,
		Cfg:                db.cfg,
		Summaries:          db.Summaries,
		Extractions:        db.extractions,
		OpStart:            db.opStart,
		Ops:                db.ops,
		ReviewSentiments:   db.ReviewSentiments,
		ReviewsPerReviewer: db.reviewsPerReviewer,
	}
	for _, a := range db.Attrs {
		st.Attrs = append(st.Attrs, AttributeState{
			Name:          a.Name,
			Categorical:   a.Categorical,
			Markers:       a.Markers,
			DomainPhrases: a.DomainPhrases,
			PhraseMarker:  a.phraseMarker,
		})
	}
	if db.Membership != nil {
		st.Membership = MembershipState{
			MarkerLR:       db.Membership.markerLR,
			ScanLR:         db.Membership.scanLR,
			MarkerAccuracy: db.Membership.MarkerAccuracy,
			ScanAccuracy:   db.Membership.ScanAccuracy,
		}
	}
	return st
}

// Components bundles the independently deserialized subsystems FromState
// rejoins with a DBState. Rel is the Entities relation; its sorted ids
// become the database's entity ids. Every field is required.
type Components struct {
	Rel         *relstore.Table
	Embed       *embedding.Model
	ReviewIndex *ir.Index
	EntityIndex *ir.Index
	Tagger      *extract.PerceptronTagger
}

// StateError is FromState's refusal of a state no writer produces. Part
// names the piece of state at fault: "attributes", "summaries",
// "extractions", "review opinions" or "review index".
type StateError struct {
	Part string
	Msg  string
}

func (e *StateError) Error() string { return "core: state " + e.Part + ": " + e.Msg }

func stateErr(part, format string, args ...any) error {
	return &StateError{Part: part, Msg: fmt.Sprintf(format, args...)}
}

// FromState reconstructs a query-ready DB from exported state and its
// subsystem components. It validates referential integrity — every
// ReviewIndex document has a sentiment and vice versa, the review →
// opinion table covers exactly those documents with in-range attributes
// and markers, every extraction row is of a served entity, every summary
// is of a served entity with in-range shapes and provenance citing its
// own rows — and refuses a violation with a *StateError. Each row's
// review, attribute and marker are set from its id's opinion. It then rebuilds every derived access path with the
// helper Build uses (buildDerived), so query results are byte-identical
// to the freshly built database's.
func FromState(st *DBState, c Components) (*DB, error) {
	switch {
	case st == nil:
		return nil, fmt.Errorf("core: nil state")
	case len(st.Attrs) == 0:
		return nil, fmt.Errorf("core: state has no subjective attributes")
	case c.Rel == nil:
		return nil, fmt.Errorf("core: state needs a relational layer")
	case c.Embed == nil:
		return nil, fmt.Errorf("core: state needs an embedding model")
	case c.ReviewIndex == nil || c.EntityIndex == nil:
		return nil, fmt.Errorf("core: state needs both IR indexes")
	case c.Tagger == nil:
		return nil, fmt.Errorf("core: state needs the extractor tagger")
	}

	db := &DB{
		Name:               st.Name,
		Rel:                c.Rel,
		attrByName:         map[string]*SubjectiveAttribute{},
		Summaries:          st.Summaries,
		extractions:        st.Extractions,
		opStart:            st.OpStart,
		ops:                st.Ops,
		Embed:              c.Embed,
		ReviewIndex:        c.ReviewIndex,
		EntityIndex:        c.EntityIndex,
		ReviewSentiments:   st.ReviewSentiments,
		Extractor:          &extract.Extractor{Tagger: c.Tagger, Pairer: extract.RulePairer{}},
		reviewsPerReviewer: st.ReviewsPerReviewer,
		cfg:                st.Cfg,
		// The Entities relation's keys, sorted and unique by construction,
		// exactly as Build sets them.
		entityIDs: c.Rel.IDs(),
	}
	if db.Summaries == nil {
		db.Summaries = map[string]map[string]*MarkerSummary{}
	}
	if db.ReviewSentiments == nil {
		db.ReviewSentiments = map[string]float64{}
	}
	if db.reviewsPerReviewer == nil {
		db.reviewsPerReviewer = map[string]int{}
	}
	db.Membership = &MembershipModel{
		markerLR:       st.Membership.MarkerLR,
		scanLR:         st.Membership.ScanLR,
		MarkerAccuracy: st.Membership.MarkerAccuracy,
		ScanAccuracy:   st.Membership.ScanAccuracy,
	}

	// ---- Subjective schema.
	for _, as := range st.Attrs {
		attr := &SubjectiveAttribute{
			Name:          as.Name,
			Categorical:   as.Categorical,
			Markers:       as.Markers,
			DomainPhrases: as.DomainPhrases,
			phraseMarker:  as.PhraseMarker,
		}
		if attr.DomainPhrases == nil {
			attr.DomainPhrases = map[string]int{}
		}
		if attr.phraseMarker == nil {
			attr.phraseMarker = map[string]int{}
		}
		if len(attr.Markers) == 0 {
			return nil, stateErr("attributes", "%s has no markers", as.Name)
		}
		for p, m := range attr.phraseMarker {
			if m < 0 || m >= len(attr.Markers) {
				return nil, stateErr("attributes", "%s maps %q to marker %d of %d",
					as.Name, p, m, len(attr.Markers))
			}
		}
		if db.attrByName[attr.Name] != nil {
			return nil, stateErr("attributes", "duplicate attribute %s", attr.Name)
		}
		db.addAttr(attr)
	}

	if err := db.checkReviews(); err != nil {
		return nil, err
	}
	if err := db.checkExtractions(); err != nil {
		return nil, err
	}

	// ---- Marker summaries: validate them against the schema and the
	// served rows, ensure an entry per attribute (AddReview folds into
	// these maps), and finalize the per-marker centroid norms exactly as
	// Build does. rowOf[id] is 1 + the position of served row id (0: not
	// served), so a cited id resolves without a search; it is dropped
	// when FromState returns.
	rowOf := make([]int32, len(db.ops))
	for i := range db.extractions {
		rowOf[db.extractions[i].ID] = int32(i + 1)
	}
	for attrName, byEntity := range db.Summaries {
		attr := db.attrByName[attrName]
		if attr == nil {
			return nil, stateErr("summaries", "summaries for unknown attribute %s", attrName)
		}
		for entityID, s := range byEntity {
			if s == nil {
				return nil, stateErr("summaries", "summary %s/%s is nil", attrName, entityID)
			}
			if !db.ServesEntity(entityID) {
				return nil, stateErr("summaries", "summary %s/%s is of an entity this database does not serve", attrName, entityID)
			}
			k := len(attr.Markers)
			if len(s.Counts) != k || len(s.SentSum) != k || len(s.VecSum) != k || len(s.Provenance) != k {
				return nil, stateErr("summaries", "summary %s/%s has %d/%d/%d/%d marker slots, want %d",
					attrName, entityID, len(s.Counts), len(s.SentSum), len(s.VecSum), len(s.Provenance), k)
			}
			for m, ids := range s.Provenance {
				for _, id := range ids {
					if id < 0 || id >= len(rowOf) || rowOf[id] == 0 {
						return nil, stateErr("summaries", "summary %s/%s marker %d cites extraction %d, which is not a served row of %d extractions",
							attrName, entityID, m, id, len(db.ops))
					}
					if ext := &db.extractions[rowOf[id]-1]; ext.Attribute != attrName || ext.EntityID != entityID || ext.Marker != m {
						return nil, stateErr("summaries", "summary %s/%s marker %d cites extraction %d of %s/%s marker %d",
							attrName, entityID, m, id, ext.Attribute, ext.EntityID, ext.Marker)
					}
				}
			}
			s.finalize()
		}
	}
	for _, attr := range db.Attrs {
		if db.Summaries[attr.Name] == nil {
			db.Summaries[attr.Name] = map[string]*MarkerSummary{}
		}
	}
	db.buildDerived()
	return db, nil
}

// checkReviews holds the review-keyed state to one set of reviews: every
// ReviewIndex document has a sentiment and there are no other sentiments,
// and the review → opinion table covers exactly those documents, with
// every opinion naming an attribute and one of its markers.
func (db *DB) checkReviews() error {
	docIDs := db.ReviewIndex.State().DocIDs
	if len(docIDs) != len(db.ReviewSentiments) {
		return stateErr("review index", "%d documents, but %d reviews carry a sentiment", len(docIDs), len(db.ReviewSentiments))
	}
	for d, id := range docIDs {
		if _, ok := db.ReviewSentiments[id]; !ok {
			return stateErr("review index", "document %d is review %s, which has no sentiment", d, id)
		}
	}
	if len(db.opStart) != len(docIDs)+1 || db.opStart[0] != 0 {
		return stateErr("review opinions", "%d offsets do not start the table of %d documents", len(db.opStart), len(docIDs))
	}
	for d := range docIDs {
		if db.opStart[d+1] < db.opStart[d] {
			return stateErr("review opinions", "document %d ends at %d, before it starts at %d", d, db.opStart[d+1], db.opStart[d])
		}
	}
	if end := db.opStart[len(docIDs)]; int(end) != len(db.ops) {
		return stateErr("review opinions", "the offsets end at %d, the table holds %d opinions", end, len(db.ops))
	}
	for i, op := range db.ops {
		if op.Attr < 0 || int(op.Attr) >= len(db.Attrs) {
			return stateErr("review opinions", "extraction %d names attribute %d of %d", i, op.Attr, len(db.Attrs))
		}
		if k := len(db.Attrs[op.Attr].Markers); op.Marker < 0 || int(op.Marker) >= k {
			return stateErr("review opinions", "extraction %d names marker %d of %d (%s)", i, op.Marker, k, db.Attrs[op.Attr].Name)
		}
	}
	return nil
}

// checkExtractions holds every full row to the review → opinion table: ids
// ascend and are in range and the row is of a served entity. A row's
// review, attribute and marker are its id's opinion's, so they are set
// from the table rather than checked against it (a snapshot does not
// store them).
func (db *DB) checkExtractions() error {
	docIDs := db.ReviewIndex.State().DocIDs
	doc := 0
	for i := range db.extractions {
		ext := &db.extractions[i]
		if i > 0 && ext.ID <= db.extractions[i-1].ID {
			return stateErr("extractions", "row %d has id %d, not above the previous row's %d", i, ext.ID, db.extractions[i-1].ID)
		}
		if ext.ID < 0 || ext.ID >= len(db.ops) {
			return stateErr("extractions", "row %d has id %d of %d extractions", i, ext.ID, len(db.ops))
		}
		if !db.ServesEntity(ext.EntityID) {
			return stateErr("extractions", "extraction %d is of entity %q, which this database does not serve", ext.ID, ext.EntityID)
		}
		for int(db.opStart[doc+1]) <= ext.ID {
			doc++
		}
		op := db.ops[ext.ID]
		ext.ReviewID, ext.Attribute, ext.Marker = docIDs[doc], db.Attrs[op.Attr].Name, int(op.Marker)
	}
	return nil
}
