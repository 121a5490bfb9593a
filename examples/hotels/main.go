// Hotels: the paper's running example (§1.1, §2, §3) on a generated
// Booking.com-style corpus — a London hotel under £150/night with really
// clean rooms that works as a romantic getaway.
//
// The example walks the full Figure 4 flow and shows each Figure 5
// interpreter stage firing: word2vec for "has really clean rooms",
// co-occurrence for "is a romantic getaway" (no schema attribute is
// called romantic), and the text-retrieval fallback for "good for
// motorcyclists". It finishes with a review-qualified query (§1.1's
// "only consider opinions of people who reviewed at least 10 hotels").
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
	genCfg.HotelsLondon, genCfg.HotelsAmsterdam = 80, 30
	genCfg.ReviewsPerHotel = 24
	fmt.Println("generating hotel corpus and building the subjective database...")
	start := time.Now()
	d := corpus.GenerateHotels(genCfg)
	db, err := harness.BuildDB(d, core.DefaultConfig(), 800, 800)
	if err != nil {
		log.Fatalf("build: %v", err)
	}
	fmt.Printf("built in %.1fs: %d hotels, %d reviews, %d extractions\n\n",
		time.Since(start).Seconds(), len(d.Entities), len(d.Reviews), db.ExtractionCount())

	// The paper's schema (Figure 2): objective attributes plus subjective
	// attributes with markers.
	fmt.Println("— subjective schema (discovered markers, worst → best) —")
	for _, name := range []string{"room_cleanliness", "service", "style"} {
		attr := db.Attr(name)
		fmt.Printf("  * %s:", name)
		for _, m := range attr.Markers {
			fmt.Printf(" [%s]", m.Name)
		}
		fmt.Println()
	}
	fmt.Println()

	// The running example query.
	sql := `select * from Hotels
	        where price_pn < 150 and "has really clean rooms" and "is a romantic getaway"
	        limit 5`
	fmt.Println("— query:", sql)
	res, err := db.Query(sql)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("rewritten fuzzy SQL:", res.Rewritten)
	for text, in := range res.Interpretations {
		fmt.Printf("  %-28q interpreted by %-8s as %s\n", text, in.Method, in.String())
	}
	fmt.Println("top answers:")
	for _, row := range res.Rows {
		e := d.EntityByID(row.EntityID)
		fmt.Printf("  %-7s %-22s £%-5.0f score %.3f (latent: clean=%.2f service=%.2f style=%s)\n",
			row.EntityID, e.Name, e.PricePerNight, row.Score,
			e.Latent["room_cleanliness"], e.Latent["service"], e.LatentCat["style"])
	}
	fmt.Println()

	// Out-of-schema predicate → text-retrieval fallback.
	fmt.Println(`— query: hotels "good for motorcyclists" (no schema attribute exists)`)
	res2, err := db.Query(`select * from Hotels where "good for motorcyclists" limit 3`)
	if err != nil {
		log.Fatal(err)
	}
	for text, in := range res2.Interpretations {
		fmt.Printf("  %q handled by the %s stage\n", text, in.Method)
	}
	for _, row := range res2.Rows {
		e := d.EntityByID(row.EntityID)
		fmt.Printf("  %-7s score %.3f motorcycle-friendly=%v\n", row.EntityID, row.Score, e.Flags["motorcycle"])
	}
	fmt.Println()

	// Review qualification: recompute degrees over prolific reviewers only.
	fmt.Println("— same cleanliness query, counting only reviewers with >= 10 reviews —")
	opts := core.DefaultQueryOptions()
	opts.TopK = 5
	opts.ReviewFilter = func(reviewer string, day int) bool {
		return db.ReviewerReviewCount(reviewer) >= 10
	}
	res3, err := db.QueryWithOptions(`select * from Hotels where "has really clean rooms" limit 5`, opts)
	if err != nil {
		log.Fatal(err)
	}
	for _, row := range res3.Rows {
		fmt.Printf("  %-7s score %.3f\n", row.EntityID, row.Score)
	}

	// Evidence: provenance for the top romantic answer.
	if len(res.Rows) > 0 {
		top := res.Rows[0].EntityID
		fmt.Printf("\n— why %s? service evidence from its reviews —\n", top)
		attr := db.Attr("service")
		shown := 0
		for mi := len(attr.Markers) - 1; mi >= 0 && shown < 4; mi-- {
			for _, ext := range db.ProvenanceOf("service", top, mi) {
				fmt.Printf("  review %s: %q\n", ext.ReviewID, ext.Phrase)
				if shown++; shown >= 4 {
					break
				}
			}
		}
	}
}
