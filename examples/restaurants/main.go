// Restaurants: Yelp-style experiential search over a generated Toronto
// restaurant corpus, combining objective filters (cuisine, price range)
// with subjective predicates, including a composite concept resolved by
// co-occurrence and an out-of-schema amenity resolved by text retrieval.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/harness"
)

func main() {
	genCfg := corpus.SmallConfig()
	genCfg.Restaurants = 120
	genCfg.ReviewsPerRestaurant = 14
	fmt.Println("generating restaurant corpus and building the subjective database...")
	start := time.Now()
	d := corpus.GenerateRestaurants(genCfg)
	db, err := harness.BuildDB(d, core.DefaultConfig(), 800, 800)
	if err != nil {
		log.Fatalf("build: %v", err)
	}
	fmt.Printf("built in %.1fs: %d restaurants, %d reviews, %d extractions\n\n",
		time.Since(start).Seconds(), len(d.Entities), len(d.Reviews), db.ExtractionCount())

	// Japanese restaurants with delicious food and a quiet room for
	// conversation — Table 1's "quiet Thai restaurant" pattern.
	sql := `select * from Restaurants
	        where cuisine = 'japanese' and "serves delicious food" and "a quiet place"
	        limit 5`
	fmt.Println("— query:", sql)
	res, err := db.Query(sql)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("rewritten:", res.Rewritten)
	for text, in := range res.Interpretations {
		fmt.Printf("  %-24q → [%s] %s\n", text, in.Method, in.String())
	}
	for _, row := range res.Rows {
		e := d.EntityByID(row.EntityID)
		fmt.Printf("  %-7s %-20s %s score %.3f (latent: food=%.2f vibe=%.2f)\n",
			row.EntityID, e.Name, dollars(e.PriceRange), row.Score,
			e.Latent["food"], e.Latent["vibe"])
	}
	fmt.Println()

	// A composite concept: "perfect for a romantic dinner" has no schema
	// attribute; the co-occurrence method finds its proxies (charming
	// ambience + quiet vibe) in the review corpus.
	fmt.Println(`— query: low-price spots "perfect for a romantic dinner"`)
	res2, err := db.Query(`select * from Restaurants
		where price_range <= 2 and "perfect for a romantic dinner" limit 5`)
	if err != nil {
		log.Fatal(err)
	}
	for text, in := range res2.Interpretations {
		fmt.Printf("  %-32q → [%s] %s\n", text, in.Method, in.String())
	}
	for _, row := range res2.Rows {
		e := d.EntityByID(row.EntityID)
		fmt.Printf("  %-7s score %.3f (ambience=%.2f vibe=%.2f)\n",
			row.EntityID, row.Score, e.Latent["ambience"], e.Latent["vibe"])
	}
	fmt.Println()

	// Out-of-schema amenity → fallback: "a sunset view from the terrace"
	// (the paper's "sunset view of Tokyo Tower" motif).
	fmt.Println(`— query: "a sunset view from the terrace" (raw-text fallback)`)
	res3, err := db.Query(`select * from Restaurants where "a sunset view from the terrace" limit 3`)
	if err != nil {
		log.Fatal(err)
	}
	for text, in := range res3.Interpretations {
		fmt.Printf("  %q handled by the %s stage\n", text, in.Method)
	}
	for _, row := range res3.Rows {
		e := d.EntityByID(row.EntityID)
		fmt.Printf("  %-7s score %.3f sunset-view=%v\n", row.EntityID, row.Score, e.Flags["sunset_view"])
	}
	fmt.Println()

	// Categorical markers: bathroom style's analogue here is the vibe
	// attribute; show a categorical attribute's discovered clusters.
	fmt.Println("— discovered markers (k-means medoids) for two attributes —")
	for _, name := range []string{"food", "vibe"} {
		attr := db.Attr(name)
		fmt.Printf("  * %s:", name)
		for _, m := range attr.Markers {
			fmt.Printf(" [%s %.2f]", m.Name, m.Sentiment)
		}
		fmt.Println()
	}
}

func dollars(n int) string {
	out := ""
	for i := 0; i < n; i++ {
		out += "$"
	}
	return out
}
