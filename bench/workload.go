package main

// Workloads and the seeded request streams that drive them. A stream is
// a pure function of (workload, seed, lane): the program under test only
// ever sees the requests generated here.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"strings"

	"repro/internal/corpus"
	"repro/internal/server"
)

type opKind int

const (
	opQuery opKind = iota
	opTopK
	opInterpret
	opReview
	numOps
)

var opNames = [numOps]string{"query", "topk", "interpret", "review"}

// workload is one traffic mix. mix holds the per-op weights of one
// schedule block; cold selects the never-repeating predicate vocabulary.
type workload struct {
	name string
	why  string
	mix  [numOps]int
	cold bool
	// gated workloads are the ones BENCHMARK.json lists, so the ones a
	// later change is held to. ingest is not: its two clients idle at
	// every fsync, and on a shared sandbox host the wake-up latency after
	// each one swings its numbers by more than the contract's largest
	// bound from one run to the next (README, "Measured spread"). It
	// stays runnable for A/B work and in the committed suite results.
	gated bool
}

// The four workloads. Each `why` is the line BENCHMARK.json records.
var workloads = []workload{
	{name: "read_hot", gated: true, mix: [numOps]int{4, 3, 2, 0},
		why: "181 repeated bank predicates fit every cache, so transport, JSON, scatter/merge and warm degree computation do the work"},
	{name: "read_cold", gated: true, mix: [numOps]int{4, 3, 2, 0}, cold: true,
		why: "every predicate text is new, so every cache misses and core.Interpret does the work; a cache change must not move it"},
	{name: "mixed", gated: true, mix: [numOps]int{4, 3, 2, 1},
		why: "hot reads with 10% writes: each applied write invalidates the caches read_hot profits from, so a cache shows its cost"},
	{name: "ingest", mix: [numOps]int{0, 0, 0, 1},
		why: "100% POST /reviews with recombined corpus sentences: prepare, commit queue, fsync, apply and replicate fan-out do the work"},
}

// preload is the write-only pseudo-workload set-up seeds the fleet with.
var preload = workload{name: "preload", mix: [numOps]int{0, 0, 0, 1}}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// Lanes partition a run's cold vocabulary and review ids between the
// request consumers, so no text or id is ever sent twice in one run no
// matter how the consumers interleave.
const (
	laneClient0  = iota // closed-loop client 0
	laneClient1         // closed-loop client 1
	laneGate            // correctness samples
	laneLadder          // ladder rungs, consecutive slices
	laneTrace           // traced pass
	laneOverhead        // wrappers on/off comparison
	lanePreload         // set-up's preloaded reviews
	numLanes     = 8
)

// Cold predicate texts are bank predicate × intensifier × trailing
// context. 190 × 30 × 40 = 228,000 distinct texts, more than 50 times
// the 4,096-entry LRU caps, so a lane of 28,500 never wraps in a run.
var (
	intensifiers = []string{
		"absolutely", "arguably", "certainly", "clearly", "consistently", "definitely",
		"easily", "especially", "frankly", "genuinely", "honestly", "hopefully",
		"ideally", "importantly", "mostly", "naturally", "notably", "obviously",
		"particularly", "plainly", "preferably", "probably", "reliably", "seriously",
		"simply", "supposedly", "surely", "truly", "typically", "undoubtedly",
	}
	contexts = []string{
		"for a weekend in june", "for a week in march", "for two nights in may", "for a long stay in autumn",
		"on a budget trip", "on a city break", "on our honeymoon", "on a solo trip",
		"near the museums", "near the station", "near the canals", "near the river",
		"with my parents", "with two toddlers", "with a group of friends", "with my partner",
		"during the marathon", "during the holidays", "during a conference", "during the festival",
		"after a late flight", "after a long drive", "before an early train", "before a wedding",
		"in the old town", "in the centre", "in a side street", "in the business district",
		"without a car", "without breaking the bank", "without stairs", "without a long walk",
		"according to regulars", "according to recent guests", "at a fair price", "at short notice",
		"even in high season", "even on weekdays", "if possible this winter", "if the weather is bad",
	}
)

// vocab is the request vocabulary derived from the generated dataset.
type vocab struct {
	hot       []string // in-schema bank predicates (181)
	bank      []string // every bank predicate, out-of-schema included (190)
	entities  []string
	sentences []string // every sentence of the corpus's own reviews
}

func newVocab(d *corpus.Dataset) *vocab {
	v := &vocab{}
	for _, p := range d.Predicates {
		v.bank = append(v.bank, p.Text)
		if p.Kind != corpus.KindOutOfSchema {
			v.hot = append(v.hot, p.Text)
		}
	}
	for _, e := range d.Entities {
		v.entities = append(v.entities, e.ID)
	}
	for _, rv := range d.Reviews {
		for _, s := range strings.Split(strings.TrimSuffix(rv.Text, "."), ". ") {
			if s != "" {
				v.sentences = append(v.sentences, s)
			}
		}
	}
	return v
}

func (v *vocab) coldSize() int { return len(v.bank) * len(intensifiers) * len(contexts) }

// coldText renders the idx-th text of the cold vocabulary.
func (v *vocab) coldText(idx int) string {
	c := idx % len(contexts)
	idx /= len(contexts)
	i := idx % len(intensifiers)
	p := idx / len(intensifiers)
	return intensifiers[i] + " " + v.bank[p] + " " + contexts[c]
}

// request is one generated operation, ready to send.
type request struct {
	op     opKind
	method string
	target string // path + raw query
	body   []byte // POST /reviews only
	pred   string // the predicate text (reads)
	sql    string // the SQL text (query)
	review server.ReviewRequest
}

const resultK = 10

// stream yields one lane's requests for a workload and seed.
type stream struct {
	w     *workload
	v     *vocab
	seed  int64
	lane  int
	rng   *rand.Rand
	block []opKind // the current shuffled schedule block
	n     int      // requests drawn so far
	cold  int      // cold texts drawn so far
	// perm is the run's shuffle of the cold vocabulary; lane l draws
	// positions l, l+numLanes, l+2*numLanes, ... of it.
	perm []int
	// exhausted is set when a lane ran out of never-sent cold texts.
	exhausted bool
}

func newStream(w *workload, v *vocab, seed int64, lane int) *stream {
	s := &stream{w: w, v: v, seed: seed, lane: lane,
		rng: rand.New(rand.NewSource(seed*1000003 + int64(lane)*7919 + nameHash(w.name)))}
	if w.cold {
		// The shuffle depends on the seed only, so all lanes of a run
		// share it and stay disjoint.
		s.perm = rand.New(rand.NewSource(seed)).Perm(v.coldSize())
	}
	return s
}

// nameHash is FNV-1a, so each workload's lanes draw their own sequence.
func nameHash(name string) int64 {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint32(name[i])) * 16777619
	}
	return int64(h)
}

// nextOp follows a fixed-proportion schedule: every block holds exactly
// the mix's weights, shuffled, so two seeds send the same op shares.
func (s *stream) nextOp() opKind {
	if len(s.block) == 0 {
		for op, w := range s.w.mix {
			for i := 0; i < w; i++ {
				s.block = append(s.block, opKind(op))
			}
		}
		s.rng.Shuffle(len(s.block), func(i, j int) { s.block[i], s.block[j] = s.block[j], s.block[i] })
	}
	op := s.block[0]
	s.block = s.block[1:]
	return op
}

func (s *stream) predicate() string {
	if !s.w.cold {
		return s.v.hot[s.rng.Intn(len(s.v.hot))]
	}
	g := s.cold*numLanes + s.lane
	if g >= len(s.perm) {
		s.exhausted = true
		g %= len(s.perm)
	}
	s.cold++
	return s.v.coldText(s.perm[g])
}

// next draws the lane's next request following the workload's mix.
func (s *stream) next() request { return s.nextOf(s.nextOp()) }

// nextRead draws a read even on write workloads (their correctness
// sample still needs reads): the 4:3:2 read mix.
func (s *stream) nextRead() request {
	r := s.rng.Intn(9)
	switch {
	case r < 4:
		return s.nextOf(opQuery)
	case r < 7:
		return s.nextOf(opTopK)
	default:
		return s.nextOf(opInterpret)
	}
}

func (s *stream) nextOf(op opKind) request {
	s.n++
	r := request{op: op, method: http.MethodGet}
	switch op {
	case opQuery:
		r.pred = s.predicate()
		r.sql = `SELECT * FROM Entities WHERE "` + r.pred + `"`
		r.target = fmt.Sprintf("/query?sql=%s&k=%d", url.QueryEscape(r.sql), resultK)
	case opTopK:
		r.pred = s.predicate()
		r.target = fmt.Sprintf("/topk?predicate=%s&k=%d", url.QueryEscape(r.pred), resultK)
	case opInterpret:
		r.pred = s.predicate()
		r.target = "/interpret?predicate=" + url.QueryEscape(r.pred)
	case opReview:
		n := 2 + s.rng.Intn(2)
		parts := make([]string, n)
		for i := range parts {
			parts[i] = s.v.sentences[s.rng.Intn(len(s.v.sentences))]
		}
		r.review = server.ReviewRequest{
			ID:       fmt.Sprintf("bench-%s-%d-%d-%d", s.w.name, s.seed, s.lane, s.n),
			EntityID: s.v.entities[s.rng.Intn(len(s.v.entities))],
			Reviewer: fmt.Sprintf("bench%d", s.lane),
			Day:      5000 + s.n%1000,
			Text:     strings.Join(parts, ". ") + ".",
		}
		r.method, r.target = http.MethodPost, "/reviews"
		r.body, _ = json.Marshal(r.review) // a struct of strings and ints cannot fail to encode
	}
	return r
}
