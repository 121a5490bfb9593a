package core_test

// The compiled interpretation kernel — domain tables, dense BM25 search,
// array tallies — against the interpreter it replaced
// (interpret_oracle_test.go), compared by reflect.DeepEqual on the
// interpretation and by bits on its similarity.

import (
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/harness"
	"repro/internal/journal"
	"repro/internal/snapshot"
)

var (
	coldIntensifiers = []string{"absolutely", "arguably", "certainly", "easily", "frankly", "genuinely", "honestly", "mostly", "notably", "truly"}
	coldContexts     = []string{"for a weekend in june", "on a budget trip", "near the station", "with two toddlers", "during the festival",
		"after a late flight", "in the old town", "without a car", "according to regulars", "even in high season", "if the weather is bad"}
)

// coldTexts is n predicate texts nobody has asked before: intensifier ×
// bank predicate × trailing context, the shape of the benchmark's cold
// vocabulary.
func coldTexts(d *corpus.Dataset, n int) []string {
	out := make([]string, 0, n)
	for i := 0; len(out) < n; i++ {
		p := d.Predicates[i%len(d.Predicates)].Text
		in := coldIntensifiers[(i/len(d.Predicates))%len(coldIntensifiers)]
		ctx := coldContexts[i%len(coldContexts)]
		out = append(out, in+" "+p+" "+ctx)
	}
	return out
}

func sameInterpretation(got, want core.Interpretation) error {
	if !reflect.DeepEqual(got, want) || !sameBits(got.Similarity, want.Similarity) {
		return fmt.Errorf("%+v (similarity %x), want %+v (%x)", got, got.Similarity, want, want.Similarity)
	}
	return nil
}

// checkAgainstOracle compares all four interpreter entry points with the
// oracle for every text and returns how often each stage chose the answer.
func checkAgainstOracle(t testing.TB, db *core.DB, texts []string) map[core.Method]int {
	t.Helper()
	oracle := core.NewInterpretOracle(db)
	methods := map[core.Method]int{}
	for _, text := range texts {
		want, wantW2V, wantCo := oracle.Interpret(text), oracle.W2VOnly(text), oracle.CooccurOnly(text)
		chosen, w2v, co := db.InterpretStages(text)
		for _, c := range []struct {
			what      string
			got, want core.Interpretation
		}{
			{"InterpretStages chosen", chosen, want},
			{"InterpretStages w2v_only", w2v, wantW2V},
			{"InterpretStages cooccur_only", co, wantCo},
			{"Interpret", db.Interpret(text), want},
			{"InterpretW2VOnly", db.InterpretW2VOnly(text), wantW2V},
			{"InterpretCooccurOnly", db.InterpretCooccurOnly(text), wantCo},
		} {
			if err := sameInterpretation(c.got, c.want); err != nil {
				t.Fatalf("%s(%q): %v", c.what, text, err)
			}
		}
		methods[want.Method]++
	}
	return methods
}

// TestInterpretEqualsOracle: the whole predicate bank, 2,000 cold texts and
// the edge cases, on the fixture and on a fixture with the Appendix B
// substitution index.
func TestInterpretEqualsOracle(t *testing.T) {
	d, fix := testDB(t)
	texts := make([]string, 0, 2300)
	for _, p := range d.Predicates {
		texts = append(texts, p.Text)
	}
	texts = append(texts, coldTexts(d, 2000)...)
	texts = append(texts,
		"", "   ", "the of and to", "the", "zzyzx qwertyuiop", "good for motorcyclists",
		"clean clean clean rooms", "romantic romantic getaway getaway", "romantic zzyzx getaway",
		"not clean at all", "dirty rooms", "CLEAN ROOMS!!", "has a really really quiet room, honestly",
	)
	methods := checkAgainstOracle(t, freshClone(t, fix), texts)
	if methods[core.MethodW2V] < 100 || methods[core.MethodCooccur] < 100 || methods[core.MethodFallback] < 100 {
		t.Fatalf("the texts do not exercise every stage: %v", methods)
	}
}

func TestInterpretEqualsOracleWithSubstitutionIndex(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a second database")
	}
	d := corpus.GenerateHotels(corpus.SmallConfig())
	cfg := core.DefaultConfig()
	cfg.UseSubstitutionIndex = true
	db, err := harness.BuildDB(d, cfg, 300, 0)
	if err != nil {
		t.Fatal(err)
	}
	if db.SubIndex == nil {
		t.Fatal("no substitution index was built")
	}
	texts := coldTexts(d, 400)
	for _, p := range d.Predicates {
		texts = append(texts, p.Text)
	}
	// Domain phrases themselves take the index's fast path.
	for _, attr := range db.Attrs {
		n := 0
		for p := range attr.DomainPhrases {
			texts = append(texts, p)
			if n++; n > 5 {
				break
			}
		}
	}
	checkAgainstOracle(t, db, texts)
}

// TestInterpreterKeepsClientTextOutOfDomainMatches: cold predicates leave
// the prepare-path memo alone, and the prepare path still fills and hits it.
func TestInterpreterKeepsClientTextOutOfDomainMatches(t *testing.T) {
	d, fix := testDB(t)
	db := freshClone(t, fix)
	before := db.DomainMatchesLen()
	for _, text := range coldTexts(d, 1000) {
		db.InterpretStages(text)
	}
	if got := db.DomainMatchesLen(); got != before {
		t.Fatalf("1,000 cold predicates grew the domain-match memo from %d to %d entries", before, got)
	}
	rv := core.ReviewData{ID: "memo-1", EntityID: db.EntityIDs()[0], Reviewer: "memo", Day: 4000,
		Text: "The room was impeccably tidy. The staff were wonderfully attentive."}
	first, err := db.PrepareReview(rv)
	if err != nil {
		t.Fatal(err)
	}
	filled := db.DomainMatchesLen()
	if filled == before {
		t.Fatal("preparing a review with out-of-domain phrases did not use the memo; the test would not see a miss")
	}
	rv.ID = "memo-2"
	second, err := db.PrepareReview(rv)
	if err != nil {
		t.Fatal(err)
	}
	if got := db.DomainMatchesLen(); got != filled {
		t.Fatalf("the repeated phrases missed the memo: %d entries, then %d", filled, got)
	}
	if !reflect.DeepEqual(first.Extractions(), second.Extractions()) {
		t.Fatalf("a memo hit changed the preparation: %v, then %v", first.Extractions(), second.Extractions())
	}
}

// TestCooccurStateTracksWrites: after owned and non-owned writes, the state
// ApplyPrepared maintains (review boost table, idf(A) denominators,
// positive-review count) equals what a restart rebuilds — from a snapshot
// of the written database, and from the base snapshot plus a journal of the
// same writes — and all three interpret like the oracle.
func TestCooccurStateTracksWrites(t *testing.T) {
	d, fix := testDB(t)
	dir := t.TempDir()
	wholePath, shardPath := filepath.Join(dir, "whole.snap"), filepath.Join(dir, "shard.snap")
	if _, err := snapshot.Save(wholePath, fix); err != nil {
		t.Fatal(err)
	}
	whole, _, err := snapshot.Load(wholePath)
	if err != nil {
		t.Fatal(err)
	}
	ids := whole.EntityIDs()
	live, err := whole.ShardDB(func(id string) bool { return id < ids[len(ids)/2] })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snapshot.Save(shardPath, live); err != nil {
		t.Fatal(err)
	}
	owned, foreign := ids[0], ids[len(ids)-1]
	var writes []journal.Review
	for i := 0; i < 12; i++ {
		rv := journal.Review{ID: fmt.Sprintf("cooccur-%02d", i), EntityID: owned, Reviewer: "tracker", Day: 4100 + i,
			Text: "A perfect romantic getaway. The staff were wonderful and very friendly. The bathroom was spotless and the bathroom was very clean. Lovely quiet room."}
		if i%2 == 1 {
			rv.EntityID = foreign
		}
		if i%3 == 2 {
			rv.Text = "A terrible romantic getaway. The staff were rude. The room was filthy and the bathroom was dirty."
		}
		writes = append(writes, rv)
	}
	const probe = "is a romantic getaway"
	beforeWrites := live.InterpretCooccurOnly(probe)
	j, err := journal.Open(journal.Dir(shardPath), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, rv := range writes {
		if _, err := j.Append(rv); err != nil {
			t.Fatal(err)
		}
		if err := live.ApplyReview(core.ReviewData(rv)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if after := live.InterpretCooccurOnly(probe); sameInterpretation(after, beforeWrites) == nil {
		t.Error("the writes moved no co-occurrence answer; the test would not see stale statistics")
	}

	replayed, _, stats, err := journal.LoadWithJournal(shardPath)
	if err != nil || stats.Applied != len(writes) {
		t.Fatalf("replay applied %d of %d writes: %v", stats.Applied, len(writes), err)
	}
	resavedPath := filepath.Join(dir, "resaved.snap")
	if _, err := snapshot.Save(resavedPath, live); err != nil {
		t.Fatal(err)
	}
	resaved, _, err := snapshot.Load(resavedPath)
	if err != nil {
		t.Fatal(err)
	}

	texts := coldTexts(d, 200)
	for _, p := range d.Predicates {
		texts = append(texts, p.Text)
	}
	wantBoost, wantWithAttr, wantPositive := resaved.CooccurStats()
	if len(wantBoost) != resaved.ReviewIndex.Len() || len(wantBoost) != fix.ReviewIndex.Len()+len(writes) {
		t.Fatalf("the rebuilt boost table has %d entries over %d reviews", len(wantBoost), resaved.ReviewIndex.Len())
	}
	for name, db := range map[string]*core.DB{"live": live, "replayed": replayed, "resaved": resaved} {
		boost, withAttr, positive := db.CooccurStats()
		if !reflect.DeepEqual(boost, wantBoost) || !reflect.DeepEqual(withAttr, wantWithAttr) || positive != wantPositive {
			t.Errorf("%s: co-occurrence state diverges from a from-scratch rebuild: %d boosts, %v reviews with each attribute, %d positive; want %d, %v, %d",
				name, len(boost), withAttr, positive, len(wantBoost), wantWithAttr, wantPositive)
		}
		checkAgainstOracle(t, db, texts)
	}
}

// TestConcurrentColdInterpret: cold predicates from 8 goroutines share the
// pooled search scratch and the domain tables (run under -race) and answer
// like a sequential pass.
func TestConcurrentColdInterpret(t *testing.T) {
	d, fix := testDB(t)
	texts := coldTexts(d, 400)
	sequential := freshClone(t, fix)
	want := make([]core.Interpretation, len(texts))
	for i, text := range texts {
		want[i] = sequential.Interpret(text)
	}
	db := freshClone(t, fix)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Every goroutine visits every text, starting somewhere else, so
			// a text is cold for whichever goroutine reaches it first.
			for i := range texts {
				at := (i + g*len(texts)/8) % len(texts)
				var got core.Interpretation
				if (i+g)%3 == 0 {
					got, _, _ = db.InterpretStages(texts[at])
				} else {
					got = db.Interpret(texts[at])
				}
				if err := sameInterpretation(got, want[at]); err != nil {
					t.Errorf("goroutine %d, %q: %v", g, texts[at], err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// stage2Texts returns n distinct cold texts that stage 1 declines and
// co-occurrence mining answers.
func stage2Texts(t testing.TB, d *corpus.Dataset, db *core.DB, n int) []string {
	t.Helper()
	var out []string
	probe := freshClone(t, db)
	for _, text := range coldTexts(d, 2000) {
		if probe.Interpret(text).Method == core.MethodCooccur {
			if out = append(out, text); len(out) == n {
				return out
			}
		}
	}
	t.Fatalf("only %d of 2,000 cold texts reach stage 2", len(out))
	return nil
}

// TestColdInterpretAllocations: a cold predicate answered by stage 2 —
// tokenize, embed, scan every domain, search the review index, tally —
// allocates a few dozen times, never per phrase, posting or candidate.
func TestColdInterpretAllocations(t *testing.T) {
	d, fix := testDB(t)
	const bound = 100
	texts := stage2Texts(t, d, fix, 41)
	db := freshClone(t, fix)
	next := 0
	allocs := testing.AllocsPerRun(len(texts)-1, func() {
		if in := db.Interpret(texts[next]); in.Method != core.MethodCooccur {
			t.Fatalf("%q: %+v", texts[next], in)
		}
		next++
	})
	if allocs > bound {
		t.Errorf("a cold stage-2 Interpret allocates %.0f times, want <= %d", allocs, bound)
	}
}

func BenchmarkInterpretCold(b *testing.B) {
	d, fix := testDB(b)
	cold := coldTexts(d, 2000)
	probe := freshClone(b, fix)
	byOutcome := map[core.Method][]string{}
	for _, text := range cold {
		m := probe.Interpret(text).Method
		byOutcome[m] = append(byOutcome[m], text)
	}
	// run times fn over cold texts: a fresh clone — empty memos — whenever
	// the texts run out, built off the clock.
	run := func(name string, texts []string, fn func(db *core.DB, text string)) {
		b.Run(name, func(b *testing.B) {
			if len(texts) == 0 {
				b.Skip("no such text on this fixture")
			}
			b.ReportAllocs()
			var db *core.DB
			for i := 0; i < b.N; i++ {
				if i%len(texts) == 0 {
					b.StopTimer()
					db = freshClone(b, fix)
					b.StartTimer()
				}
				fn(db, texts[i%len(texts)])
			}
		})
	}
	interpret := func(db *core.DB, text string) { db.Interpret(text) }
	run("w2v", byOutcome[core.MethodW2V], interpret)
	run("cooccur", byOutcome[core.MethodCooccur], interpret)
	run("fallback", byOutcome[core.MethodFallback], interpret)
	run("stages", cold, func(db *core.DB, text string) { db.InterpretStages(text) })
	// The tail case: /interpret's ungated diagnostic mining a predicate
	// whose only indexed term is a stopword — nearly every review matches.
	run("stopword_cooccur_only", []string{"the", "the the", "of the", "and the"},
		func(db *core.DB, text string) { db.InterpretCooccurOnly(text) })
}
