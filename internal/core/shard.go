package core

// Horizontal sharding seam. A shard of a built database serves a
// contiguous range of the (sorted) entity id space while answering every
// query byte-identically to the monolithic database — the contract the
// scatter-gather router (internal/router) depends on.
//
// What identity requires: a predicate's interpretation and an entity's
// degree of truth are functions of corpus-global model state — the
// subjective schema, the embedding model, both BM25 indexes (the entity
// index's idf enters fallback scores), the review-sentiment and reviewer
// statistics, the review → (attribute, marker) table co-occurrence mining
// and idf(A) read, and the membership model. That state is therefore
// REPLICATED into every shard. What is PARTITIONED is the per-entity
// state: the Entities relation and, through it, entityIDs, the marker
// summaries, and the extraction relation's full rows (provenance, the
// scan path and RebuildSummaries read only a served entity's rows) — so a
// shard only scores, ranks, serves evidence for and caches degree lists
// for its own entity range. Extraction ids stay global: a shard's rows are a sparse,
// ascending subset of the monolith's, and the replicated table assigns
// the next id on every node alike. Per-entity scores never change; only
// which entities a process answers for does.

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/extract"
	"repro/internal/relstore"
)

// PartitionEntities splits the database's sorted entity ids into n
// contiguous, near-equal ranges (shard i gets ids[i*N/n : (i+1)*N/n]).
// The split is a pure function of the sorted id list, so every build of
// the same corpus partitions identically. It errors when n exceeds the
// entity count (an empty shard serves nothing and signals a misconfigured
// fleet).
func (db *DB) PartitionEntities(n int) ([][]string, error) {
	if n <= 0 {
		return nil, fmt.Errorf("core: partition into %d shards", n)
	}
	total := len(db.entityIDs)
	if n > total {
		return nil, fmt.Errorf("core: %d shards over %d entities leaves empty shards", n, total)
	}
	out := make([][]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, db.entityIDs[i*total/n:(i+1)*total/n])
	}
	return out, nil
}

// Shards partitions the database into n shard databases over contiguous
// entity ranges — PartitionEntities + ShardDB in one step, so every
// caller (builder, fleet writer, rebalancer, benchmark) derives fleets the
// same way. It returns the shard databases and the entity-id ranges they
// own, both ordered by shard index.
func (db *DB) Shards(n int) ([]*DB, [][]string, error) {
	parts, err := db.PartitionEntities(n)
	if err != nil {
		return nil, nil, err
	}
	out := make([]*DB, 0, n)
	for i, ids := range parts {
		keep := make(map[string]bool, len(ids))
		for _, id := range ids {
			keep[id] = true
		}
		shard, err := db.ShardDB(func(id string) bool { return keep[id] })
		if err != nil {
			return nil, nil, fmt.Errorf("core: shard %d: %w", i, err)
		}
		out = append(out, shard)
	}
	return out, parts, nil
}

// ShardDB derives a new query-ready database restricted to the entities
// where keep(id) is true. Replicated state (schema, embedding, IR indexes,
// extractor, membership model, review → opinion table, review statistics)
// is shared or rebuilt identically, so the shard's answers for its
// entities carry the exact float bits the monolith produces; the Entities
// relation, the marker summaries and the extraction rows are restricted to
// the kept entities. The shard gets its own copy of the review → opinion
// table, which ApplyPrepared appends to; otherwise it shares read-only
// structures with the receiver (the ReviewIndex among them), and the
// receiver must not be mutated while ShardDB runs — treat both as frozen
// once serving starts (the same rule as snapshot.Write).
func (db *DB) ShardDB(keep func(entityID string) bool) (*DB, error) {
	if keep == nil {
		return nil, fmt.Errorf("core: ShardDB needs a keep predicate")
	}
	tagger, ok := db.Extractor.Tagger.(*extract.PerceptronTagger)
	if !ok {
		return nil, fmt.Errorf("core: ShardDB supports the perceptron tagger, not %T", db.Extractor.Tagger)
	}

	st := db.State()
	shardSt := &DBState{
		Name:               st.Name,
		Cfg:                st.Cfg,
		Attrs:              st.Attrs,
		OpStart:            slices.Clone(st.OpStart),
		Ops:                slices.Clone(st.Ops),
		ReviewSentiments:   st.ReviewSentiments,
		ReviewsPerReviewer: st.ReviewsPerReviewer,
		Membership:         st.Membership,
		Summaries:          make(map[string]map[string]*MarkerSummary, len(st.Summaries)),
	}
	for attr, byEntity := range st.Summaries {
		kept := make(map[string]*MarkerSummary)
		for id, s := range byEntity {
			if keep(id) {
				kept[id] = s
			}
		}
		shardSt.Summaries[attr] = kept
	}
	for _, ext := range st.Extractions {
		if keep(ext.EntityID) {
			shardSt.Extractions = append(shardSt.Extractions, ext)
		}
	}

	rel, err := restrictEntities(db.Rel, keep)
	if err != nil {
		return nil, err
	}

	shard, err := FromState(shardSt, Components{
		Rel:         rel,
		Embed:       db.Embed,
		ReviewIndex: db.ReviewIndex,
		EntityIndex: db.EntityIndex,
		Tagger:      tagger,
	})
	if err != nil {
		return nil, fmt.Errorf("core: shard reconstruction: %w", err)
	}
	return shard, nil
}

// MergeShards is ShardDB's inverse: it reconstructs the monolith-
// equivalent database from a complete fleet of shard databases ordered
// by shard index. Corpus-global model state is REPLICATED across shards
// and byte-identical on every healthy replica (the sharding contract),
// so the merge takes it — the review → opinion table included, as the
// merged database's own copy — from shard 0 after verifying the fleet has
// not drifted (equal extraction and review counts everywhere — a shard
// that missed replicated writes fails here and needs an anti-entropy
// repair pass first). The PARTITIONED state — the Entities relation, the
// marker summaries and the extraction rows — is the union over shards:
// shard order restores the original contiguous-range concatenation of
// entities, and the rows are re-sorted by id. The shards share read-only
// structures with the merged database afterwards; treat all of them as
// frozen (the same rule as ShardDB).
//
// This is what makes online N→M rebalancing (internal/fleet) possible
// without a full corpus rebuild: merge the N loaded shards, then
// re-partition the merged database M ways.
func MergeShards(shards []*DB) (*DB, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("core: merge of zero shards")
	}
	base := shards[0]
	tagger, ok := base.Extractor.Tagger.(*extract.PerceptronTagger)
	if !ok {
		return nil, fmt.Errorf("core: MergeShards supports the perceptron tagger, not %T", base.Extractor.Tagger)
	}
	st := base.State()
	merged := &DBState{
		Name:               st.Name,
		Cfg:                st.Cfg,
		Attrs:              st.Attrs,
		OpStart:            slices.Clone(st.OpStart),
		Ops:                slices.Clone(st.Ops),
		ReviewSentiments:   st.ReviewSentiments,
		ReviewsPerReviewer: st.ReviewsPerReviewer,
		Membership:         st.Membership,
		Summaries:          make(map[string]map[string]*MarkerSummary, len(st.Summaries)),
	}
	for attr := range st.Summaries {
		merged.Summaries[attr] = map[string]*MarkerSummary{}
	}

	prevLast := ""
	for i, sh := range shards {
		if sh.Name != base.Name {
			return nil, fmt.Errorf("core: shard %d is database %q, shard 0 is %q", i, sh.Name, base.Name)
		}
		// Drift gate: replicated state must have seen the same writes.
		if sh.ExtractionCount() != base.ExtractionCount() || len(sh.ReviewSentiments) != len(base.ReviewSentiments) {
			return nil, fmt.Errorf("core: shard %d replicated state diverges (%d extractions / %d reviews, shard 0 has %d / %d) — run write-repair before merging",
				i, sh.ExtractionCount(), len(sh.ReviewSentiments), base.ExtractionCount(), len(base.ReviewSentiments))
		}
		ids := sh.EntityIDs()
		if len(ids) == 0 {
			return nil, fmt.Errorf("core: shard %d serves no entities", i)
		}
		if i > 0 && ids[0] <= prevLast {
			return nil, fmt.Errorf("core: shard %d range starts at %q, not after shard %d's last entity %q — shards must be ordered by index",
				i, ids[0], i-1, prevLast)
		}
		prevLast = ids[len(ids)-1]
		for attr, byEntity := range sh.State().Summaries {
			dst := merged.Summaries[attr]
			if dst == nil {
				dst = map[string]*MarkerSummary{}
				merged.Summaries[attr] = dst
			}
			for id, s := range byEntity {
				if _, dup := dst[id]; dup {
					return nil, fmt.Errorf("core: entity %s carries a %s summary on two shards", id, attr)
				}
				dst[id] = s
			}
		}
		merged.Extractions = append(merged.Extractions, sh.extractions...)
	}
	slices.SortFunc(merged.Extractions, func(a, b Extraction) int { return cmp.Compare(a.ID, b.ID) })

	rel, err := mergeEntityRows(shards)
	if err != nil {
		return nil, err
	}
	db, err := FromState(merged, Components{
		Rel:         rel,
		Embed:       base.Embed,
		ReviewIndex: base.ReviewIndex,
		EntityIndex: base.EntityIndex,
		Tagger:      tagger,
	})
	if err != nil {
		return nil, fmt.Errorf("core: merge reconstruction: %w", err)
	}
	return db, nil
}

// mergeEntityRows rebuilds the Entities relation as the concatenation of
// every shard's rows in shard order (contiguous ascending ranges, so the
// result restores the pre-partition row set).
func mergeEntityRows(shards []*DB) (*relstore.Table, error) {
	var rows []relstore.Row
	for _, sh := range shards {
		for e := 0; e < sh.Rel.Len(); e++ {
			rows = append(rows, sh.Rel.Row(e))
		}
	}
	return relstore.NewTable(shards[0].Rel.Schema(), rows)
}

// restrictEntities rebuilds the Entities relation limited to kept ids.
func restrictEntities(rel *relstore.Table, keep func(string) bool) (*relstore.Table, error) {
	var rows []relstore.Row
	for e, id := range rel.IDs() {
		if keep(id) {
			rows = append(rows, rel.Row(e))
		}
	}
	return relstore.NewTable(rel.Schema(), rows)
}
