// Command opinedb builds a subjective database over a generated review
// corpus and answers subjective SQL queries, either one-shot (-query) or
// in an interactive REPL.
//
// Examples:
//
//	opinedb -domain hotel -query 'select * from Hotels where price_pn < 150 and "has really clean rooms" limit 5'
//	opinedb -domain restaurant            # REPL
//
// REPL extras: `\interpret <predicate>` shows the Figure 5 interpretation
// chain for a predicate; `\schema` lists the subjective attributes and
// their markers; `\evidence <entity> <attribute>` prints provenance.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/harness"
)

func main() {
	domain := flag.String("domain", "hotel", "corpus domain: hotel or restaurant")
	query := flag.String("query", "", "one-shot subjective SQL query (REPL if empty)")
	seed := flag.Int64("seed", 1, "corpus and build seed")
	small := flag.Bool("small", false, "build a small corpus (faster startup)")
	topK := flag.Int("k", 10, "result size")
	flag.Parse()

	genCfg := corpus.DefaultConfig()
	if *small {
		genCfg = corpus.SmallConfig()
		genCfg.HotelsLondon, genCfg.HotelsAmsterdam = 60, 25
		genCfg.ReviewsPerHotel = 20
		genCfg.Restaurants = 80
	}
	genCfg.Seed = *seed

	fmt.Fprintf(os.Stderr, "generating %s corpus and building subjective database...\n", *domain)
	start := time.Now()
	var d *corpus.Dataset
	switch *domain {
	case "hotel":
		d = corpus.GenerateHotels(genCfg)
	case "restaurant":
		d = corpus.GenerateRestaurants(genCfg)
	default:
		log.Fatalf("unknown domain %q (want hotel or restaurant)", *domain)
	}
	cfg := core.DefaultConfig()
	cfg.Seed = *seed
	db, err := harness.BuildDB(d, cfg, 800, 800)
	if err != nil {
		log.Fatalf("build: %v", err)
	}
	fmt.Fprintf(os.Stderr, "ready: %d entities, %d reviews, %d extractions, %d subjective attributes (%.1fs)\n\n",
		len(d.Entities), len(d.Reviews), db.ExtractionCount(), len(db.Attrs), time.Since(start).Seconds())

	if *query != "" {
		if err := runQuery(db, d, *query, *topK); err != nil {
			log.Fatal(err)
		}
		return
	}

	fmt.Println(`OpineDB REPL — subjective SQL over the Entities relation.
Example: select * from Entities where price_pn < 200 and "has really clean rooms" limit 5
Commands: \schema  \interpret <predicate>  \evidence <entity> <attribute>  \quit`)
	scanner := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("opinedb> ")
		if !scanner.Scan() {
			break
		}
		line := strings.TrimSpace(scanner.Text())
		switch {
		case line == "" || line == `\quit` || line == "quit" || line == "exit":
			if line != "" {
				return
			}
		case line == `\schema`:
			printSchema(db)
		case strings.HasPrefix(line, `\interpret `):
			printInterpretation(db, strings.TrimPrefix(line, `\interpret `))
		case strings.HasPrefix(line, `\evidence `):
			parts := strings.Fields(strings.TrimPrefix(line, `\evidence `))
			if len(parts) != 2 {
				fmt.Println("usage: \\evidence <entityID> <attribute>")
				continue
			}
			printEvidence(db, parts[0], parts[1])
		default:
			if err := runQuery(db, d, line, *topK); err != nil {
				fmt.Println("error:", err)
			}
		}
	}
}

func runQuery(db *core.DB, d *corpus.Dataset, sql string, topK int) error {
	opts := core.DefaultQueryOptions()
	opts.TopK = topK
	start := time.Now()
	res, err := db.QueryWithOptions(sql, opts)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	fmt.Printf("rewritten: %s\n", res.Rewritten)
	for text, in := range res.Interpretations {
		fmt.Printf("  %q → [%s] %s\n", text, in.Method, in.String())
	}
	fmt.Printf("%-8s %-22s %-7s", "entity", "name", "score")
	var preds []string
	for text := range res.Interpretations {
		preds = append(preds, text)
	}
	for range preds {
		fmt.Printf(" %6s", "pred")
	}
	fmt.Println()
	for _, row := range res.Rows {
		name := ""
		if e := d.EntityByID(row.EntityID); e != nil {
			name = e.Name
		}
		fmt.Printf("%-8s %-22s %.4f ", row.EntityID, name, row.Score)
		for _, p := range preds {
			fmt.Printf(" %.3f", row.PredicateScores[p])
		}
		fmt.Println()
	}
	fmt.Printf("(%d rows, %.1fms)\n\n", len(res.Rows), float64(elapsed.Microseconds())/1000)
	return nil
}

func printSchema(db *core.DB) {
	fmt.Println("Subjective attributes (markers worst→best for linear domains):")
	for _, a := range db.Attrs {
		kind := "linear"
		if a.Categorical {
			kind = "categorical"
		}
		fmt.Printf("  * %s (%s, %d domain phrases)\n", a.Name, kind, len(a.DomainPhrases))
		for i, m := range a.Markers {
			fmt.Printf("      [%d] %-28s senti=%+.2f\n", i, m.Name, m.Sentiment)
		}
	}
}

func printInterpretation(db *core.DB, pred string) {
	pred = strings.Trim(pred, `"' `)
	in, w, c := db.InterpretStages(pred)
	fmt.Printf("predicate: %q\n  chosen stage: %s\n  interpretation: %s\n", pred, in.Method, in.String())
	fmt.Printf("  [w2v stage]      sim=%.3f best variation=%q → %s\n", w.Similarity, w.MatchedPhrase, w.String())
	fmt.Printf("  [co-occur stage] conf=%.3f → %s\n", c.Similarity, c.String())
}

func printEvidence(db *core.DB, entity, attribute string) {
	attr := db.Attr(attribute)
	if attr == nil {
		fmt.Printf("no attribute %q\n", attribute)
		return
	}
	s := db.Summary(attribute, entity)
	if s == nil {
		fmt.Printf("no summary for %s/%s\n", entity, attribute)
		return
	}
	fmt.Printf("marker summary of %s.%s (total %d phrases):\n", entity, attribute, int(s.Total))
	for i, m := range attr.Markers {
		fmt.Printf("  [%d] %-28s count=%3.0f avgSenti=%+.2f\n", i, m.Name, s.Counts[i], s.AvgSentiment(i))
		for j, ext := range db.ProvenanceOf(attribute, entity, i) {
			if j >= 3 {
				fmt.Printf("        … and %d more\n", int(s.Counts[i])-3)
				break
			}
			fmt.Printf("        review %s: (%q, %q)\n", ext.ReviewID, ext.Aspect, ext.Phrase)
		}
	}
}
