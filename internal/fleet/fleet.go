// Package fleet is the control plane of a sharded OpineDB deployment —
// the first subsystem that treats the fleet, not one process, as the
// unit of correctness.
//
// The data plane (internal/router over internal/server replicas) keeps a
// healthy fleet byte-identical to the monolith: every replicated write
// lands on every shard in one fleet-wide order, journaled per node
// (internal/journal). This package closes the two gaps that remain when
// the fleet is not healthy:
//
//   - Anti-entropy write-repair (repair.go). A replica that missed
//     replicated writes — reported `partial` by the router — drifts in
//     its corpus-global interpretation state. Repair diffs last-applied
//     journal sequences across the fleet (GET /journal/status), proves
//     prefix containment with a hash chain, streams the missing tail
//     from the most advanced replica (GET /journal/records), and
//     backfills laggards through the existing replica-write path
//     (POST /reviews with the replica flag), which re-applies each delta
//     under the target's write lock and journals it locally. A laggard
//     converges to byte-identical interpretation state, because the
//     router sends it nothing but this backfill, which replays the exact
//     missed suffix in fleet order. A node whose journal is not a prefix
//     of the fleet's is refused, never merged; live replica join
//     (join.go) applies the same rule.
//
//   - Online N→M shard rebalancing (rebalance.go). Rebalance loads an
//     N-shard fleet (snapshots + unreplayed journals), merges it back
//     into the monolith-equivalent database (core.MergeShards — the
//     replicated global state comes from any shard, the partitioned
//     state is the union), re-partitions the entity space M ways
//     (core.Shards), and commits a fresh M-shard snapshot set + manifest
//     crash-safely: generation-named artifacts, a cleanup-intent sidecar,
//     temp-dir + rename, and a single manifest-rename commit point, so
//     the operation is idempotent on retry after a crash at any step —
//     with no full corpus rebuild.
//
// Both operations preserve the repo's standing contract: a repaired or
// rebalanced fleet answers the full harness query fingerprint
// byte-identically to the monolith (enforced end to end in
// internal/fleet/e2e_test.go).
package fleet

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/server"
)

// Backend executes one node-API request — the HTTP JSON surface of
// internal/server. It is structurally identical to internal/router's
// Backend, so a router's shard backends satisfy it directly (the router
// hands its own backends to Repair after a partial write).
type Backend interface {
	// Name identifies the node in reports ("shard 2 @ :8082").
	Name() string
	// Do performs method on target (path + raw query) with an optional
	// JSON body, returning the status code and response body.
	Do(ctx context.Context, method, target string, body []byte) (status int, respBody []byte, err error)
}

// getJSON performs a GET against a node and decodes the JSON response,
// reporting the HTTP status alongside any error (callers distinguish a
// deliberate 404 — no journal surface — from a transport failure).
func getJSON(ctx context.Context, b Backend, target string, out interface{}) (int, error) {
	status, body, err := b.Do(ctx, "GET", target, nil)
	if err != nil {
		return 0, err
	}
	if status != 200 {
		var env struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(body, &env) == nil && env.Error != "" {
			return status, fmt.Errorf("status %d: %s", status, env.Error)
		}
		return status, fmt.Errorf("status %d", status)
	}
	if err := json.Unmarshal(body, out); err != nil {
		return status, fmt.Errorf("bad response: %v", err)
	}
	return status, nil
}

// journalStatus fetches a node's journal introspection report; at > 0
// bounds the prefix hash at that sequence.
func journalStatus(ctx context.Context, b Backend, at uint64) (server.JournalStatusResponse, int, error) {
	target := "/journal/status"
	if at > 0 {
		target = fmt.Sprintf("/journal/status?at=%d", at)
	}
	var st server.JournalStatusResponse
	status, err := getJSON(ctx, b, target, &st)
	return st, status, err
}

// journalRecords fetches one page of a node's journal records starting
// at from.
func journalRecords(ctx context.Context, b Backend, from uint64, limit int) (server.JournalRecordsResponse, error) {
	var page server.JournalRecordsResponse
	_, err := getJSON(ctx, b, fmt.Sprintf("/journal/records?from=%d&limit=%d", from, limit), &page)
	return page, err
}
