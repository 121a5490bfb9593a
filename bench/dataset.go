package main

// Dataset → database → fleet-on-disk. The benchmark carries its own copy
// of these two small adapters instead of importing internal/harness, so a
// later split of that package cannot change what is measured here.

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/snapshot"
)

const (
	// corpusSeed fixes the hotel corpus and the build: the database is
	// the program's data, the same on every run; -seed drives only the
	// requests sent to it, so two seeds measure the same system.
	corpusSeed = 1
	// taggedSentences and membershipLabels match the opinedbb defaults.
	taggedSentences  = 800
	membershipLabels = 800
	shardCount       = 4
	fleetBase        = "bench"
)

// buildInput assembles the construction input for the hotel dataset:
// objective records, raw reviews, the designer's attribute specs with
// seeds, gold sentences for the extractor and membership labels drawn
// from the latent ground truth.
func buildInput(d *corpus.Dataset, rng *rand.Rand) core.BuildInput {
	in := core.BuildInput{Name: d.Domain}
	for _, e := range d.Entities {
		in.Entities = append(in.Entities, core.EntityData{ID: e.ID, Objective: map[string]interface{}{
			"name":     e.Name,
			"city":     e.City,
			"price_pn": e.PricePerNight,
			"capacity": int64(e.Capacity),
		}})
	}
	for _, rv := range d.Reviews {
		in.Reviews = append(in.Reviews, core.ReviewData{
			ID: rv.ID, EntityID: rv.EntityID, Reviewer: rv.Reviewer, Day: rv.Day, Text: rv.Text,
		})
	}
	seeds := d.Seeds()
	for i, a := range d.Aspects {
		in.Attributes = append(in.Attributes, core.AttrSpec{Name: a.Name, Categorical: a.Categorical, Seeds: seeds[i]})
	}
	in.TaggedTraining = d.TaggedSentences(taggedSentences, rng)

	var inSchema []corpus.Predicate
	for _, p := range d.Predicates {
		if p.Kind == corpus.KindMarker || p.Kind == corpus.KindParaphrase {
			inSchema = append(inSchema, p)
		}
	}
	for i := 0; i < membershipLabels; i++ {
		p := inSchema[rng.Intn(len(inSchema))]
		e := d.Entities[rng.Intn(len(d.Entities))]
		in.MembershipLabels = append(in.MembershipLabels, core.MembershipLabel{
			EntityID: e.ID, Attribute: p.GoldAttribute, Phrase: p.Text, Y: p.Satisfied(e),
		})
	}
	return in
}

// buildDB generates the default-size hotel corpus and builds its
// subjective database with the serving defaults.
func buildDB() (*corpus.Dataset, *core.DB, error) {
	gen := corpus.DefaultConfig()
	gen.Seed = corpusSeed
	d := corpus.GenerateHotels(gen)
	cfg := core.DefaultConfig()
	cfg.Seed = corpusSeed
	db, err := core.Build(buildInput(d, rand.New(rand.NewSource(corpusSeed+13))), cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("build: %w", err)
	}
	return d, db, nil
}

// writeFleet shards db into shardCount contiguous entity ranges and
// writes the shard snapshots plus a single-replica manifest under dir.
// It returns the manifest path and the bytes written.
func writeFleet(db *core.DB, dir string) (string, int64, error) {
	shardDBs, parts, err := db.Shards(shardCount)
	if err != nil {
		return "", 0, fmt.Errorf("shard: %w", err)
	}
	m := &snapshot.Manifest{
		FormatVersion: snapshot.FormatVersion,
		Name:          db.Name,
		BuildSeed:     corpusSeed,
		Shards:        shardCount,
		TotalEntities: len(db.EntityIDs()),
		CreatedUnix:   time.Now().Unix(),
	}
	var bytes int64
	for i, sdb := range shardDBs {
		ids := parts[i]
		path := filepath.Join(dir, fmt.Sprintf("%s-shard%d.snap", fleetBase, i))
		meta, err := snapshot.SaveShard(path, sdb, &snapshot.ShardMeta{
			Index: i, Count: shardCount, Entities: len(ids), TotalEntities: m.TotalEntities,
			FirstEntity: ids[0], LastEntity: ids[len(ids)-1],
		})
		if err != nil {
			return "", 0, fmt.Errorf("save shard %d: %w", i, err)
		}
		bytes += meta.FileBytes
		m.Shard = append(m.Shard, snapshot.ManifestShard{
			Index: i, Path: filepath.Base(path), Entities: len(ids),
			FirstEntity: ids[0], LastEntity: ids[len(ids)-1],
			SnapshotSHA256: meta.SHA256, SnapshotBytes: meta.FileBytes,
		})
	}
	manifestPath := filepath.Join(dir, fleetBase+".manifest.json")
	if err := snapshot.WriteManifest(manifestPath, m); err != nil {
		return "", 0, fmt.Errorf("manifest: %w", err)
	}
	return manifestPath, bytes, nil
}
