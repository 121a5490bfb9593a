package harness

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/snapshot"
)

// PersistenceResult reports the build-once / serve-many experiment: how
// long a cold start takes by rebuilding the corpus versus loading a
// snapshot, and whether the loaded database answers the harness query
// set byte-identically to the built one (it must).
type PersistenceResult struct {
	// Entities / Reviews / Extractions size the corpus under test.
	Entities    int
	Reviews     int
	Extractions int
	// BuildSeconds is the full construction pipeline (parallel workers).
	BuildSeconds float64
	// SaveSeconds / LoadSeconds time snapshot.Save and snapshot.Load.
	SaveSeconds float64
	LoadSeconds float64
	// SnapshotBytes is the artifact size on disk.
	SnapshotBytes int64
	// Speedup is BuildSeconds / LoadSeconds — the cold-start win.
	Speedup float64
	// QueriesChecked counts fingerprinted interpretations, rankings and
	// top-k runs; Equivalent reports whether every one matched bit-for-bit
	// between the built and the loaded database.
	QueriesChecked int
	Equivalent     bool
	// Err is a non-empty description when the experiment itself failed.
	Err string
}

// RunPersistence builds a small hotel corpus, snapshots it, reloads it,
// and verifies load-vs-build equivalence over the full predicate bank.
func RunPersistence(seed int64) PersistenceResult {
	var res PersistenceResult
	genCfg := corpus.SmallConfig()
	genCfg.Seed = seed
	d := corpus.GenerateHotels(genCfg)

	cfg := core.DefaultConfig()
	cfg.Seed = seed

	t0 := time.Now()
	db, err := BuildDB(d, cfg, 400, 300)
	if err != nil {
		res.Err = fmt.Sprintf("build: %v", err)
		return res
	}
	res.BuildSeconds = time.Since(t0).Seconds()
	res.Entities = len(d.Entities)
	res.Reviews = len(d.Reviews)
	res.Extractions = db.ExtractionCount()

	f, err := os.CreateTemp("", "opinedb-persistence-*.snap")
	if err != nil {
		res.Err = fmt.Sprintf("tempfile: %v", err)
		return res
	}
	path := f.Name()
	_ = f.Close()
	defer os.Remove(path)

	t0 = time.Now()
	meta, err := snapshot.Save(path, db)
	if err != nil {
		res.Err = fmt.Sprintf("save: %v", err)
		return res
	}
	res.SaveSeconds = time.Since(t0).Seconds()
	res.SnapshotBytes = meta.FileBytes

	loaded, loadMeta, err := snapshot.Load(path)
	if err != nil {
		res.Err = fmt.Sprintf("load: %v", err)
		return res
	}
	res.LoadSeconds = loadMeta.LoadDuration.Seconds()
	if res.LoadSeconds > 0 {
		res.Speedup = res.BuildSeconds / res.LoadSeconds
	}

	builtFP, n := QueryFingerprint(d, db)
	loadedFP, _ := QueryFingerprint(d, loaded)
	res.QueriesChecked = n
	res.Equivalent = builtFP == loadedFP
	return res
}

// QueryEngine is the query surface QueryFingerprint drives: a *core.DB
// satisfies it directly, and router.Router implements it by scattering to
// shard backends — which is exactly how the sharding contract ("a sharded
// deployment answers byte-identically to the monolith") is enforced.
type QueryEngine interface {
	Interpret(text string) core.Interpretation
	RankPredicates(predicates []string, objective func(entityID string) bool, opts core.QueryOptions) (*core.QueryResult, error)
	TopKThreshold(predicates []string, k int) ([]core.ResultRow, core.TopKStats, error)
}

// QueryFingerprint serializes an engine's answers over the full harness
// query set with exact float bits: the interpretation of every bank
// predicate, the ranked Query result for every single predicate and
// adjacent pair, and TopKThreshold for the same workloads. Two engines
// answering byte-identically produce equal fingerprints. Work statistics
// (TA depth, sorted accesses) are deliberately excluded: they depend on
// the deployment shape (monolith vs shard fleet), not on the answers.
// It returns the fingerprint and the number of query-set entries covered.
func QueryFingerprint(d *corpus.Dataset, db QueryEngine) (string, int) {
	hexf := func(x float64) string { return strconv.FormatFloat(x, 'x', -1, 64) }
	var b strings.Builder
	n := 0
	texts := make([]string, 0, len(d.Predicates))
	for _, p := range d.Predicates {
		texts = append(texts, p.Text)
	}
	for _, text := range texts {
		in := db.Interpret(text)
		fmt.Fprintf(&b, "interp %q method=%s terms=%v disj=%v sim=%s\n",
			text, in.Method, in.Terms, in.Disjunction, hexf(in.Similarity))
		n++
	}
	workloads := make([][]string, 0, 2*len(texts))
	for i, text := range texts {
		workloads = append(workloads, []string{text})
		if i+1 < len(texts) {
			workloads = append(workloads, []string{text, texts[i+1]})
		}
	}
	opts := core.DefaultQueryOptions()
	for _, q := range workloads {
		res, err := db.RankPredicates(q, nil, opts)
		if err != nil {
			fmt.Fprintf(&b, "query %v error=%v\n", q, err)
			n++
			continue
		}
		fmt.Fprintf(&b, "query %v:", q)
		for _, r := range res.Rows {
			fmt.Fprintf(&b, " %s=%s", r.EntityID, hexf(r.Score))
		}
		b.WriteByte('\n')
		n++

		rows, _, err := db.TopKThreshold(q, 10)
		if err != nil {
			fmt.Fprintf(&b, "topk %v error=%v\n", q, err)
			n++
			continue
		}
		fmt.Fprintf(&b, "topk %v:", q)
		for _, r := range rows {
			fmt.Fprintf(&b, " %s=%s", r.EntityID, hexf(r.Score))
		}
		b.WriteByte('\n')
		n++
	}
	return b.String(), n
}

// FormatPersistence renders the persistence experiment.
func FormatPersistence(r PersistenceResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Persistence (snapshot build-once / serve-many; %d entities, %d reviews, %d extractions)\n",
		r.Entities, r.Reviews, r.Extractions)
	if r.Err != "" {
		fmt.Fprintf(&b, "  FAILED: %s\n", r.Err)
		return b.String()
	}
	fmt.Fprintf(&b, "  cold start:  %8.2fs rebuild   %8.4fs snapshot load   (%.0fx faster)\n",
		r.BuildSeconds, r.LoadSeconds, r.Speedup)
	fmt.Fprintf(&b, "  artifact:    %8.2f MB on disk, written in %.2fs\n",
		float64(r.SnapshotBytes)/(1<<20), r.SaveSeconds)
	verdict := "IDENTICAL"
	if !r.Equivalent {
		verdict = "MISMATCH (snapshot round-trip is broken)"
	}
	fmt.Fprintf(&b, "  equivalence: %d query-set entries, loaded vs built: %s\n", r.QueriesChecked, verdict)
	return b.String()
}
