package core

// Serialization seam for a built DB (the build-once / serve-many split).
//
// State() exports everything query processing needs that cannot be
// recomputed cheaply: the subjective schema with its linguistic domains
// and marker assignments, the marker summaries, the extraction relation,
// per-review sentiments, the membership model and the configuration.
// FromState() reconstructs a query-ready DB from that state plus the
// independently serialized subsystems (relational layer, embedding model,
// IR indexes, extractor tagger, optional substitution index), rebuilding
// the derived state — attrByName, entityIDs, reviewsPerReviewer, summary
// centroids, and through buildDerived (derived.go, the helper Build ends in
// too) the extraction access paths, co-occurrence statistics, domain tables
// and review boost table — so a loaded DB answers every query
// byte-identically to the freshly built one. The query-time
// memo caches start empty; they are memos of pure functions of the
// restored state, so warming them changes latency, never results.

import (
	"fmt"

	"repro/internal/classify"
	"repro/internal/embedding"
	"repro/internal/extract"
	"repro/internal/ir"
	"repro/internal/kdtree"
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
// model, IR indexes, extractor tagger and substitution index are
// serialized through their own packages' seams and rejoined in FromState.
type DBState struct {
	Name             string
	Cfg              Config
	Attrs            []AttributeState
	Summaries        map[string]map[string]*MarkerSummary
	Extractions      []Extraction
	ReviewSentiments map[string]float64
	Membership       MembershipState
}

// State exports the database for serialization. The returned state shares
// maps and slices with the live DB; the DB must not be mutated (AddReview,
// RebuildSummaries, ...) until encoding completes.
func (db *DB) State() *DBState {
	st := &DBState{
		Name:             db.Name,
		Cfg:              db.cfg,
		Summaries:        db.Summaries,
		Extractions:      db.Extractions,
		ReviewSentiments: db.ReviewSentiments,
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
// rejoins with a DBState. SubIndex is optional (nil when the database was
// built without the Appendix B index); everything else is required.
type Components struct {
	Rel         *relstore.DB
	Embed       *embedding.Model
	ReviewIndex *ir.Index
	EntityIndex *ir.Index
	Tagger      *extract.PerceptronTagger
	SubIndex    *kdtree.SubstitutionIndexState
}

// FromState reconstructs a query-ready DB from exported state and its
// subsystem components. It validates referential integrity (marker
// summary shapes, extraction ids, required relations) and rebuilds every
// derived access path with the helper Build uses (buildDerived), so query
// results are byte-identical to the freshly built database's.
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
	for _, table := range []string{"Entities", "Reviews", "Extractions"} {
		if _, err := c.Rel.Table(table); err != nil {
			return nil, fmt.Errorf("core: state relational layer: %w", err)
		}
	}

	db := &DB{
		Name:               st.Name,
		Rel:                c.Rel,
		attrByName:         map[string]*SubjectiveAttribute{},
		Summaries:          st.Summaries,
		Extractions:        st.Extractions,
		Embed:              c.Embed,
		ReviewIndex:        c.ReviewIndex,
		EntityIndex:        c.EntityIndex,
		ReviewSentiments:   st.ReviewSentiments,
		Extractor:          &extract.Extractor{Tagger: c.Tagger, Pairer: extract.RulePairer{}},
		reviewsPerReviewer: map[string]int{},
		cfg:                st.Cfg,
	}
	if db.Summaries == nil {
		db.Summaries = map[string]map[string]*MarkerSummary{}
	}
	if db.ReviewSentiments == nil {
		db.ReviewSentiments = map[string]float64{}
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
			return nil, fmt.Errorf("core: state attribute %s has no markers", as.Name)
		}
		for p, m := range attr.phraseMarker {
			if m < 0 || m >= len(attr.Markers) {
				return nil, fmt.Errorf("core: state attribute %s maps %q to marker %d of %d",
					as.Name, p, m, len(attr.Markers))
			}
		}
		if db.attrByName[attr.Name] != nil {
			return nil, fmt.Errorf("core: state has duplicate attribute %s", attr.Name)
		}
		db.Attrs = append(db.Attrs, attr)
		db.attrByName[attr.Name] = attr
	}

	// ---- Marker summaries: validate shapes against the schema, ensure an
	// entry per attribute (AddReview folds into these maps), and finalize
	// the per-marker centroids exactly as Build does.
	for attrName, byEntity := range db.Summaries {
		attr := db.attrByName[attrName]
		if attr == nil {
			return nil, fmt.Errorf("core: state has summaries for unknown attribute %s", attrName)
		}
		for entityID, s := range byEntity {
			if s == nil {
				return nil, fmt.Errorf("core: state summary %s/%s is nil", attrName, entityID)
			}
			k := len(attr.Markers)
			if len(s.Counts) != k || len(s.SentSum) != k || len(s.VecSum) != k || len(s.Provenance) != k {
				return nil, fmt.Errorf("core: state summary %s/%s has %d/%d/%d/%d marker slots, want %d",
					attrName, entityID, len(s.Counts), len(s.SentSum), len(s.VecSum), len(s.Provenance), k)
			}
			s.finalize()
		}
	}
	for _, attr := range db.Attrs {
		if db.Summaries[attr.Name] == nil {
			db.Summaries[attr.Name] = map[string]*MarkerSummary{}
		}
	}

	// ---- Entity ids: the Entities relation's sorted keys, matching
	// Build's sorted input ids.
	entities, err := db.Rel.Table("Entities")
	if err != nil {
		return nil, err
	}
	for _, k := range entities.Keys() {
		id, ok := k.(string)
		if !ok {
			return nil, fmt.Errorf("core: state Entities key %v is not a string", k)
		}
		db.entityIDs = append(db.entityIDs, id)
	}

	// ---- Reviewer counts from the Reviews relation.
	reviews, err := db.Rel.Table("Reviews")
	if err != nil {
		return nil, err
	}
	reviews.Scan(func(r relstore.Row) bool {
		if reviewer, err := reviews.Get(r, "reviewer"); err == nil {
			if name, ok := reviewer.(string); ok {
				db.reviewsPerReviewer[name]++
			}
		}
		return true
	})

	// ---- Extractions must reference the schema before the derived access
	// paths index them.
	for i := range db.Extractions {
		ext := &db.Extractions[i]
		if ext.ID != i {
			return nil, fmt.Errorf("core: state extraction %d carries id %d", i, ext.ID)
		}
		attr := db.attrByName[ext.Attribute]
		if attr == nil {
			return nil, fmt.Errorf("core: state extraction %d references unknown attribute %s", i, ext.Attribute)
		}
		if ext.Marker < 0 || ext.Marker >= len(attr.Markers) {
			return nil, fmt.Errorf("core: state extraction %d references marker %d of %d (%s)",
				i, ext.Marker, len(attr.Markers), ext.Attribute)
		}
	}
	db.buildDerived()

	// ---- Optional Appendix B substitution index, rebuilt against the
	// restored embedding model.
	if c.SubIndex != nil {
		db.SubIndex = kdtree.NewSubstitutionIndexFromState(*c.SubIndex, db.Embed)
	}
	return db, nil
}
