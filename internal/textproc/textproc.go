// Package textproc provides the low-level text processing primitives used
// throughout OpineDB: tokenization, sentence splitting, stopword filtering,
// n-gram extraction, and corpus-level term statistics (TF, DF, IDF).
//
// The paper relies on standard IR preprocessing (Okapi BM25 over tf-idf,
// IDF-weighted phrase embeddings); this package supplies those statistics
// without external dependencies.
package textproc

import (
	"math"
	"strings"
	"unicode"
)

// Tokenize splits text into lowercase word tokens. Letters and digits are
// kept; intra-word apostrophes and hyphens are preserved ("don't",
// "old-fashioned") so that opinion phrases survive tokenization intact.
func Tokenize(text string) []string {
	tokens := make([]string, 0, len(text)/5)
	var b strings.Builder
	flush := func() {
		if b.Len() == 0 {
			return
		}
		tok := strings.Trim(b.String(), "'-")
		if tok != "" {
			tokens = append(tokens, tok)
		}
		b.Reset()
	}
	for _, r := range text {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(unicode.ToLower(r))
		case r == '\'' || r == '-':
			// Keep only if inside a word; leading marks are trimmed on flush.
			if b.Len() > 0 {
				b.WriteRune(r)
			}
		default:
			flush()
		}
	}
	flush()
	return tokens
}

// Sentences splits text into sentences on '.', '!', '?' and newlines.
// It is deliberately simple: review text in our corpora is generated with
// well-formed sentence boundaries, and the paper's pipeline operates at the
// sentence level.
func Sentences(text string) []string {
	var out []string
	var b strings.Builder
	emit := func() {
		s := strings.TrimSpace(b.String())
		if s != "" {
			out = append(out, s)
		}
		b.Reset()
	}
	for _, r := range text {
		switch r {
		case '.', '!', '?', '\n':
			emit()
		default:
			b.WriteRune(r)
		}
	}
	emit()
	return out
}

// stopwords is the filter list applied before computing embeddings and
// index statistics. Negation words ("not", "no", "never") are deliberately
// NOT stopwords: they carry the sentiment-flipping signal that the paper's
// qualitative comparison with the IR baseline depends on.
var stopwords = map[string]bool{
	"a": true, "an": true, "the": true, "is": true, "was": true, "are": true,
	"were": true, "be": true, "been": true, "being": true, "am": true,
	"i": true, "we": true, "you": true, "he": true, "she": true, "it": true,
	"they": true, "my": true, "our": true, "your": true, "his": true,
	"her": true, "its": true, "their": true, "this": true, "that": true,
	"these": true, "those": true, "and": true, "or": true, "but": true,
	"of": true, "in": true, "on": true, "at": true, "to": true, "for": true,
	"with": true, "from": true, "by": true, "as": true, "had": true,
	"has": true, "have": true, "do": true, "does": true, "did": true,
	"will": true, "would": true, "there": true, "here": true, "so": true,
	"than": true, "then": true, "too": true, "also": true, "just": true,
	"about": true, "into": true, "over": true, "after": true, "before": true,
	"during": true, "while": true, "when": true, "where": true, "which": true,
	"who": true, "whom": true, "what": true, "because": true, "if": true,
	"s": true, "t": true, "us": true, "me": true, "him": true, "them": true,
}

// IsStopword reports whether tok is in the stopword list.
func IsStopword(tok string) bool { return stopwords[tok] }

// CorpusStats accumulates document frequency statistics over a corpus and
// answers IDF queries. A "document" is whatever unit the caller passes to
// AddDocument (reviews in OpineDB).
type CorpusStats struct {
	docCount int
	df       map[string]int
	termCnt  map[string]int
	total    int64 // total token occurrences
}

// NewCorpusStats returns an empty statistics accumulator.
func NewCorpusStats() *CorpusStats {
	return &CorpusStats{df: make(map[string]int), termCnt: make(map[string]int)}
}

// AddDocument records one document's tokens into the statistics.
func (c *CorpusStats) AddDocument(tokens []string) {
	c.docCount++
	seen := make(map[string]bool, len(tokens))
	for _, t := range tokens {
		c.termCnt[t]++
		c.total++
		if !seen[t] {
			seen[t] = true
			c.df[t]++
		}
	}
}

// DocCount returns the number of documents added.
func (c *CorpusStats) DocCount() int { return c.docCount }

// DF returns the document frequency of term.
func (c *CorpusStats) DF(term string) int { return c.df[term] }

// TermCount returns the total number of occurrences of term.
func (c *CorpusStats) TermCount(term string) int { return c.termCnt[term] }

// IDF returns the smoothed inverse document frequency
// log((N+1)/(df+1)) + 1, which is strictly positive and defined for
// unseen terms. This is the idf(w) of Eq. 1 in the paper.
func (c *CorpusStats) IDF(term string) float64 {
	return math.Log(float64(c.docCount+1)/float64(c.df[term]+1)) + 1
}

// Vocabulary returns every term seen at least minCount times.
func (c *CorpusStats) Vocabulary(minCount int) []string {
	out := make([]string, 0, len(c.termCnt))
	for t, n := range c.termCnt {
		if n >= minCount {
			out = append(out, t)
		}
	}
	return out
}

// CorpusStatsState is the exported serialization seam for CorpusStats:
// the complete accumulator state, suitable for gob/JSON encoding by the
// snapshot layer. Maps are shared with the live accumulator, not copied —
// treat a state taken from a live CorpusStats as read-only.
type CorpusStatsState struct {
	DocCount  int
	DF        map[string]int
	TermCount map[string]int
	Total     int64
}

// State exports the accumulator for serialization.
func (c *CorpusStats) State() CorpusStatsState {
	return CorpusStatsState{DocCount: c.docCount, DF: c.df, TermCount: c.termCnt, Total: c.total}
}

// NewCorpusStatsFromState reconstructs an accumulator from exported state.
// Nil maps (possible after decoding an empty corpus) are replaced by empty
// ones so the accumulator stays usable.
func NewCorpusStatsFromState(st CorpusStatsState) *CorpusStats {
	if st.DF == nil {
		st.DF = make(map[string]int)
	}
	if st.TermCount == nil {
		st.TermCount = make(map[string]int)
	}
	return &CorpusStats{docCount: st.DocCount, df: st.DF, termCnt: st.TermCount, total: st.Total}
}
