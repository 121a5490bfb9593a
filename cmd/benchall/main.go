// Command benchall regenerates every table and figure of the paper's
// evaluation (§5 and the appendices) in one run, printing paper-formatted
// output. Flags trade fidelity for speed; the defaults complete in a few
// minutes on a laptop. Serving performance is not measured here: that is
// the repository benchmark's job (`bash bench/run.sh`, BENCHMARK.json).
//
// Usage:
//
//	benchall [-quick] [-seed N] [-skip table5,table6,...]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/harness"
)

// suite is what the experiments share: the flags, and the corpora and
// databases most of them read — generated on first use, so a run that
// skips every reader never pays for them.
type suite struct {
	seed   int64
	start  time.Time
	genCfg corpus.GenConfig

	t5               harness.Table5Config
	t7               harness.Table7Config
	table6Trials     int
	taggedN, labelsN int

	hotels, restaurants *corpus.Dataset
	hotelDB, restDB     *core.DB
}

// generate makes the two corpora available.
func (s *suite) generate() {
	if s.hotels != nil {
		return
	}
	fmt.Println("generating corpora...")
	s.hotels = corpus.GenerateHotels(s.genCfg)
	s.restaurants = corpus.GenerateRestaurants(s.genCfg)
	fmt.Printf("  hotels: %d entities, %d reviews; restaurants: %d entities, %d reviews (%.1fs)\n\n",
		len(s.hotels.Entities), len(s.hotels.Reviews),
		len(s.restaurants.Entities), len(s.restaurants.Reviews), time.Since(s.start).Seconds())
}

// build makes the corpora and the two subjective databases available.
func (s *suite) build() {
	if s.hotelDB != nil {
		return
	}
	s.generate()
	fmt.Println("building subjective databases (extraction + markers + summaries)...")
	buildStart := time.Now()
	cfg := core.DefaultConfig()
	cfg.Seed = s.seed
	var err error
	if s.hotelDB, err = harness.BuildDB(s.hotels, cfg, s.taggedN, s.labelsN); err != nil {
		log.Fatalf("hotel build: %v", err)
	}
	if s.restDB, err = harness.BuildDB(s.restaurants, cfg, s.taggedN, s.labelsN); err != nil {
		log.Fatalf("restaurant build: %v", err)
	}
	fmt.Printf("  built in %.1fs (hotel: %d extractions, restaurant: %d)\n\n",
		time.Since(buildStart).Seconds(), s.hotelDB.ExtractionCount(), s.restDB.ExtractionCount())
}

// experiments is the suite in run order. It is also the vocabulary of
// -skip: the flag's help text and its validation both read the names here.
var experiments = []struct {
	name string
	run  func(s *suite)
}{
	{"table3", func(s *suite) {
		fmt.Println(harness.FormatTable3(harness.RunTable3(s.seed)))
	}},
	{"table4", func(s *suite) {
		s.generate()
		fmt.Println(harness.FormatTable4(harness.RunTable4(s.hotels, s.restaurants)))
	}},
	{"table5", func(s *suite) {
		s.build()
		fmt.Println("running Table 5 (quality vs baselines)...")
		s.t5.Seed = s.seed + 100
		fmt.Println(harness.FormatTable5(harness.RunTable5(s.hotels, s.restaurants, s.hotelDB, s.restDB, s.t5)))
	}},
	{"table6", func(s *suite) {
		fmt.Println("running Table 6 (extractor F1)...")
		fmt.Println(harness.FormatTable6(harness.RunTable6(s.table6Trials, s.seed+200)))
	}},
	{"table7", func(s *suite) {
		s.build()
		fmt.Println("running Table 7 (marker speedup)...")
		s.t7.Seed = s.seed + 300
		fmt.Println(harness.FormatTable7(harness.RunTable7(s.hotels, s.restaurants, s.hotelDB, s.restDB, s.t7)))
	}},
	{"table8", func(s *suite) {
		s.build()
		fmt.Println("running Table 8 (interpreter accuracy)...")
		fmt.Println(harness.FormatTable8(harness.RunTable8(s.hotels, s.restaurants, s.hotelDB, s.restDB, s.seed+400)))
	}},
	{"figure7", func(s *suite) {
		s.build()
		fmt.Println(harness.FormatFigure7(harness.RunFigure7(s.hotelDB)))
	}},
	{"figure8", func(s *suite) {
		s.build()
		fmt.Println(harness.FormatFigure8(harness.RunFigure8(s.hotels, s.hotelDB)))
	}},
	{"appendixb", func(s *suite) {
		s.build()
		fmt.Println(harness.FormatAppendixB(harness.RunAppendixB(s.hotels, s.hotelDB)))
	}},
	{"appendixc", func(s *suite) {
		fmt.Println(harness.FormatAppendixC(harness.RunAppendixC(s.seed + 500)))
	}},
}

func experimentNames() []string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	return names
}

// parseSkip reads the -skip list (case-insensitive, blanks ignored). A
// name that is not an experiment is an error: a typo must not silently
// run the multi-minute suite it meant to skip.
func parseSkip(spec string) (map[string]bool, error) {
	names := experimentNames()
	skipped := map[string]bool{}
	for _, s := range strings.Split(spec, ",") {
		if s = strings.TrimSpace(strings.ToLower(s)); s == "" {
			continue
		}
		if !slices.Contains(names, s) {
			return nil, fmt.Errorf("unknown experiment %q in -skip (valid: %s)", s, strings.Join(names, ","))
		}
		skipped[s] = true
	}
	return skipped, nil
}

func main() {
	quick := flag.Bool("quick", false, "reduced corpus and trial counts (~10x faster)")
	seed := flag.Int64("seed", 1, "master random seed")
	skip := flag.String("skip", "", "comma-separated experiments to skip ("+strings.Join(experimentNames(), ",")+")")
	flag.Parse()

	skipped, err := parseSkip(*skip)
	if err != nil {
		fmt.Fprintf(flag.CommandLine.Output(), "benchall: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}

	s := &suite{
		seed:         *seed,
		start:        time.Now(),
		genCfg:       corpus.DefaultConfig(),
		t5:           harness.DefaultTable5Config(),
		t7:           harness.DefaultTable7Config(),
		table6Trials: 3,
		taggedN:      900,
		labelsN:      1000,
	}
	if *quick {
		s.genCfg = corpus.SmallConfig()
		s.genCfg.HotelsLondon, s.genCfg.HotelsAmsterdam = 60, 25
		s.genCfg.ReviewsPerHotel = 20
		s.genCfg.Restaurants = 80
		s.genCfg.ReviewsPerRestaurant = 10
		s.t5.QueriesPerSet, s.t5.Trials = 10, 2
		s.t7.QueriesPerSet = 30
		s.table6Trials = 2
		s.taggedN, s.labelsN = 500, 600
	}
	s.genCfg.Seed = *seed

	fmt.Println("== OpineDB experiment suite ==")
	fmt.Printf("corpus: %d hotels, %d restaurants (seed %d, quick=%v)\n\n",
		s.genCfg.HotelsLondon+s.genCfg.HotelsAmsterdam, s.genCfg.Restaurants, *seed, *quick)

	for _, e := range experiments {
		if !skipped[e.name] {
			e.run(s)
		}
	}

	fmt.Printf("total time: %.1fs\n", time.Since(s.start).Seconds())
	os.Exit(0)
}
