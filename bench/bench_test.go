package main

import (
	"fmt"
	"regexp"
	"testing"

	"repro/internal/corpus"
)

func TestPercentileNearestRank(t *testing.T) {
	twenty := make([]float64, 20)
	for i := range twenty {
		twenty[i] = float64(i + 1)
	}
	cases := []struct {
		sorted []float64
		q      float64
		want   float64
	}{
		{nil, 0.5, 0},
		{[]float64{7}, 0.95, 7},
		{[]float64{1, 2, 3, 4}, 0.5, 2},
		{[]float64{1, 2, 3, 4, 5}, 0.5, 3},
		{twenty, 0.95, 19}, // 0.95*20 must not round up to rank 20
		{twenty, 0.99, 20},
		{twenty, 0, 1},
		{twenty, 1, 20},
	}
	for _, c := range cases {
		if got := percentile(c.sorted, c.q); got != c.want {
			t.Errorf("percentile(n=%d, %v) = %v, want %v", len(c.sorted), c.q, got, c.want)
		}
	}
}

func TestPercentilesCarryTheirSampleCount(t *testing.T) {
	ops := perOp([]sample{
		{op: opQuery, dur: 3000, ok: true},
		{op: opQuery, dur: 1000, ok: true},
		{op: opQuery, dur: 2000, ok: true},
		{op: opQuery, dur: 9000, ok: false},
		{op: opTopK, dur: 5000, ok: true},
	})
	if got, want := ops[opQuery].describe(0.5), "2.0 us (n=3)"; got != want {
		t.Errorf("describe = %q, want %q", got, want)
	}
	if ops[opQuery].failed != 1 || ops[opTopK].n() != 1 || ops[opReview].n() != 0 {
		t.Errorf("perOp split wrong: %+v", ops)
	}
}

func testVocab() *vocab { return newVocab(corpus.GenerateHotels(corpus.DefaultConfig())) }

func TestColdVocabularyNeverRepeats(t *testing.T) {
	v := testVocab()
	if len(v.hot) != 181 || len(v.bank) != 190 {
		t.Fatalf("bank has %d in-schema of %d predicates, want 181 of 190", len(v.hot), len(v.bank))
	}
	const perLane = 8200 // × 8 lanes = 65,600 texts
	cold := workloadByName("read_cold")
	for _, seed := range []int64{1, 2} {
		seen := make(map[string]struct{}, perLane*numLanes)
		for lane := 0; lane < numLanes; lane++ {
			st := newStream(cold, v, seed, lane)
			for i := 0; i < perLane; i++ {
				seen[st.next().pred] = struct{}{}
			}
			if st.exhausted {
				t.Fatalf("seed %d lane %d ran out of cold texts", seed, lane)
			}
		}
		if len(seen) != perLane*numLanes {
			t.Errorf("seed %d: %d distinct texts of %d drawn", seed, len(seen), perLane*numLanes)
		}
	}
	all := make(map[string]struct{}, v.coldSize())
	for i := 0; i < v.coldSize(); i++ {
		all[v.coldText(i)] = struct{}{}
	}
	if len(all) != v.coldSize() || len(all) < 65000 {
		t.Errorf("cold vocabulary renders %d distinct texts of %d", len(all), v.coldSize())
	}
}

func TestStreamsRepeatForEqualSeeds(t *testing.T) {
	v := testVocab()
	render := func(w *workload, seed int64) string {
		st := newStream(w, v, seed, laneClient1)
		out := ""
		for i := 0; i < 300; i++ {
			r := st.next()
			out += r.method + r.target + string(r.body) + "\n"
		}
		return out
	}
	for i := range workloads {
		w := &workloads[i]
		if render(w, 7) != render(w, 7) {
			t.Errorf("%s: equal seeds gave different streams", w.name)
		}
		if render(w, 7) == render(w, 8) {
			t.Errorf("%s: different seeds gave the same stream", w.name)
		}
	}
}

func TestMixScheduleKeepsExactShares(t *testing.T) {
	v := testVocab()
	st := newStream(workloadByName("mixed"), v, 3, laneClient0)
	var n [numOps]int
	for i := 0; i < 1000; i++ {
		n[st.next().op]++
	}
	if n != [numOps]int{400, 300, 200, 100} {
		t.Errorf("1000 mixed requests split %v, want 400/300/200/100", n)
	}
}

func TestSelfTimes(t *testing.T) {
	// client 0..100 has legs 10..40 and 30..60 (overlapping: cover 50)
	// and 90..120 (only 10 inside the client). The first leg has an
	// append 15..25 which has an fsync 18..24.
	spans := []span{
		{Name: "client", Start: 0, End: 100, ID: 1, Request: 1},
		{Name: "router.leg", Start: 10, End: 40, ID: 2, Parent: 1, Request: 1},
		{Name: "router.leg", Start: 30, End: 60, ID: 3, Parent: 1, Request: 1},
		{Name: "router.leg", Start: 90, End: 120, ID: 4, Parent: 1, Request: 1},
		{Name: "journal.append", Start: 15, End: 25, ID: 5, Parent: 2, Request: 1},
		{Name: "journal.fsync", Start: 18, End: 24, ID: 6, Parent: 5, Request: 1},
	}
	want := map[int64]int64{1: 40, 2: 20, 3: 30, 4: 30, 5: 4, 6: 6}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, got[id], w)
		}
	}
}

func TestWorseBy(t *testing.T) {
	if got := worseBy(100, 110, lower); got != 0.1 {
		t.Errorf("lower-is-better 100→110 worse by %v, want 0.1", got)
	}
	if got := worseBy(100, 90, higher); got != 0.1 {
		t.Errorf("higher-is-better 100→90 worse by %v, want 0.1", got)
	}
	if got := worseBy(100, 90, lower); got >= 0 {
		t.Errorf("an improvement reads as worse by %v", got)
	}
}

// TestCatalogueMatchesBenchmarkFile holds metrics.go and BENCHMARK.json
// together and checks the contract's limits on names, units and counts.
func TestCatalogueMatchesBenchmarkFile(t *testing.T) {
	bf, err := loadBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind string, want []metricDef, got []metricDef) {
		if len(want) != len(got) {
			t.Fatalf("%s: catalogue has %d metrics, BENCHMARK.json %d", kind, len(want), len(got))
		}
		for i, d := range want {
			if got[i] != d {
				t.Errorf("%s[%d]: catalogue %+v, BENCHMARK.json %+v", kind, i, d, got[i])
			}
			if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || (d.Better != lower && d.Better != higher) {
				t.Errorf("%s: %+v breaks the naming contract", kind, d)
			}
			if seen[d.Name] {
				t.Errorf("%s: %s is used twice", kind, d.Name)
			}
			seen[d.Name] = true
		}
	}
	var e2e []metricDef
	hasSetup := false
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, m.metricDef)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || m.metricDef == metricDef{"setup_s", "s", lower}
	}
	check("end_to_end", endToEnd, e2e)
	check("per_layer", perLayer(), bf.PerLayer)
	if !hasSetup {
		t.Error("end_to_end lacks setup_s")
	}
	if len(e2e) > 16 || len(bf.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed 16 / 128", len(e2e), len(bf.PerLayer))
	}
	var gated []workload
	for _, w := range workloads {
		if w.gated {
			gated = append(gated, w)
		}
	}
	if len(bf.Workloads) != len(gated) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark gates %d", len(bf.Workloads), len(gated))
	}
	for i, w := range gated {
		if got := bf.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, benchmark {%s %s}", i, got, w.name, w.why)
		}
		if !name.MatchString(w.name) || len(w.why) > 200 {
			t.Errorf("workload %s breaks the naming contract", w.name)
		}
	}
	if fmt.Sprint(bf.Paths) != "[bench]" || fmt.Sprint(bf.Command) != "[bash bench/run.sh]" {
		t.Errorf("BENCHMARK.json runs %v over %v", bf.Command, bf.Paths)
	}
}
