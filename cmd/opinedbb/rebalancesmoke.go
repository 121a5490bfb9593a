package main

// opinedbb -rebalance-smoke: the end-to-end drill of the fleet control
// plane's rebalancing path, runnable in CI:
//
//  1. build a small corpus and write a 4-shard fleet (snapshots +
//     manifest),
//  2. serve it behind the in-process router with a journal per shard and
//     ingest review deltas through the write path (every shard journals
//     every delta, fleet-ordered),
//  3. rebalance 4 → 2 and then 2 → 8 — merging snapshots + journals, no
//     rebuild — and after each step prove the routed fleet answers the
//     full harness query fingerprint byte-identically to the monolith
//     that applied the same deltas directly.

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/harness"
	"repro/internal/journal"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/snapshot"
)

const rebalanceSmokeDeltas = 24

func runRebalanceSmoke(seed int64) {
	log.Printf("rebalance-smoke: building small hotel corpus...")
	d, db, err := harness.BuildDomain("hotel", true, seed, 0, 400, 300, true)
	if err != nil {
		log.Fatalf("rebalance-smoke: build: %v", err)
	}
	dir, err := os.MkdirTemp("", "opinedb-rebalance-smoke-*")
	if err != nil {
		log.Fatalf("rebalance-smoke: %v", err)
	}
	defer os.RemoveAll(dir)

	// 4-shard fleet on disk (the shared fleet-layout writer).
	manifestPath, err := harness.WriteFleet(db, dir, "hotel", 4, seed)
	if err != nil {
		log.Fatalf("rebalance-smoke: fleet: %v", err)
	}
	manifest, err := snapshot.LoadManifest(manifestPath)
	if err != nil {
		log.Fatalf("rebalance-smoke: manifest: %v", err)
	}

	// Serve the fleet in process with a journal per shard and route the
	// deltas through the fleet-ordered write path.
	entities := db.EntityIDs()
	var journals []*journal.Journal
	shards := make([]router.Shard, 4)
	for i := range manifest.Shard {
		sdb, _, err := snapshot.LoadVerifiedShard(manifestPath, manifest, i)
		if err != nil {
			log.Fatalf("rebalance-smoke: shard %d load: %v", i, err)
		}
		jdir := journal.Dir(filepath.Join(dir, manifest.Shard[i].Path))
		j, err := journal.Open(jdir, journal.Options{})
		if err != nil {
			log.Fatalf("rebalance-smoke: %v", err)
		}
		journals = append(journals, j)
		ingest := server.JournaledIngest(j)
		ingest.AcceptUnowned = true
		shards[i] = router.Shard{
			Backend:     router.NewLocalBackend(fmt.Sprintf("shard%d", i), sdb, server.Options{Ingest: ingest}),
			FirstEntity: manifest.Shard[i].FirstEntity,
			LastEntity:  manifest.Shard[i].LastEntity,
		}
	}
	rt, err := router.New(shards, router.Options{})
	if err != nil {
		log.Fatalf("rebalance-smoke: router: %v", err)
	}
	log.Printf("rebalance-smoke: ingesting %d deltas through the router...", rebalanceSmokeDeltas)
	var deltas []core.ReviewData
	for i := 0; i < rebalanceSmokeDeltas; i++ {
		rv := smokeReview(i, entities)
		deltas = append(deltas, core.ReviewData{ID: rv.ID, EntityID: rv.EntityID, Reviewer: rv.Reviewer, Day: rv.Day, Text: rv.Text})
		res, err := rt.AddReview(context.Background(), server.ReviewRequest{
			ID: rv.ID, EntityID: rv.EntityID, Reviewer: rv.Reviewer, Day: rv.Day, Text: rv.Text,
		})
		if err != nil {
			log.Fatalf("rebalance-smoke: write %s: %v", rv.ID, err)
		}
		if res.Partial {
			log.Fatalf("rebalance-smoke: write %s was partial: %+v", rv.ID, res.ShardErrors)
		}
	}
	for _, j := range journals {
		if err := j.Close(); err != nil {
			log.Fatalf("rebalance-smoke: %v", err)
		}
	}

	// The reference: the monolith that applied the same deltas in the
	// same order.
	for _, rv := range deltas {
		if err := db.ApplyReview(rv); err != nil {
			log.Fatalf("rebalance-smoke: reference apply: %v", err)
		}
	}
	wantFP, n := harness.QueryFingerprint(d, db)

	check := func(step string) {
		frt, _, err := router.FromManifest(manifestPath, router.ManifestOptions{})
		if err != nil {
			log.Fatalf("rebalance-smoke: %s: load fleet: %v", step, err)
		}
		gotFP, _ := harness.QueryFingerprint(d, frt.Engine(context.Background()))
		if gotFP != wantFP {
			log.Fatalf("rebalance-smoke: %s: fleet diverges from the enriched monolith over %d query-set entries", step, n)
		}
		log.Printf("rebalance-smoke: %s: byte-identical over %d query-set entries", step, n)
	}

	start := time.Now()
	if _, err := fleet.Rebalance(manifestPath, 2, fleet.RebalanceOptions{}); err != nil {
		log.Fatalf("rebalance-smoke: 4→2: %v", err)
	}
	to2 := time.Since(start)
	check("4→2")

	start = time.Now()
	if _, err := fleet.Rebalance(manifestPath, 8, fleet.RebalanceOptions{}); err != nil {
		log.Fatalf("rebalance-smoke: 2→8: %v", err)
	}
	to8 := time.Since(start)
	check("2→8")

	fmt.Printf("rebalance-smoke OK: 4→2 in %.2fs, 2→8 in %.2fs, %d query-set entries identical\n",
		to2.Seconds(), to8.Seconds(), n)
}
