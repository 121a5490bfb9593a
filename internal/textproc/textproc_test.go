package textproc

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenizeBasic(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"The room was very clean!", []string{"the", "room", "was", "very", "clean"}},
		{"Old-fashioned bathrooms, don't you think?", []string{"old-fashioned", "bathrooms", "don't", "you", "think"}},
		{"", nil},
		{"   ", nil},
		{"£180 per night", []string{"180", "per", "night"}},
		{"WiFi was FAST", []string{"wifi", "was", "fast"}},
		{"'quoted'", []string{"quoted"}},
		{"--dash--", []string{"dash"}},
		{"a-b-c", []string{"a-b-c"}},
	}
	for _, c := range cases {
		got := Tokenize(c.in)
		if len(got) == 0 && len(c.want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestTokenizeLowercases(t *testing.T) {
	for _, tok := range Tokenize("MIXED Case TeXt") {
		if tok != strings.ToLower(tok) {
			t.Errorf("token %q not lowercased", tok)
		}
	}
}

func TestTokenizeNeverEmptyTokens(t *testing.T) {
	f := func(s string) bool {
		for _, tok := range Tokenize(s) {
			if tok == "" {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTokenizeIdempotentOnJoined(t *testing.T) {
	// Tokenizing the space-joined token stream must yield the same stream.
	f := func(s string) bool {
		first := Tokenize(s)
		second := Tokenize(strings.Join(first, " "))
		return reflect.DeepEqual(first, second)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSentences(t *testing.T) {
	got := Sentences("The room was clean. The staff was friendly! Would you return? Yes")
	want := []string{"The room was clean", "The staff was friendly", "Would you return", "Yes"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Sentences = %v, want %v", got, want)
	}
}

func TestSentencesEmpty(t *testing.T) {
	if got := Sentences(""); got != nil {
		t.Errorf("Sentences(\"\") = %v, want nil", got)
	}
	if got := Sentences("..."); got != nil {
		t.Errorf("Sentences(\"...\") = %v, want nil", got)
	}
}

func TestStopwords(t *testing.T) {
	if !IsStopword("the") {
		t.Error("'the' should be a stopword")
	}
	if IsStopword("not") {
		t.Error("'not' must NOT be a stopword (negation carries signal)")
	}
	if IsStopword("clean") {
		t.Error("'clean' should not be a stopword")
	}
}

func TestCorpusStats(t *testing.T) {
	cs := NewCorpusStats()
	cs.AddDocument([]string{"clean", "room", "clean"})
	cs.AddDocument([]string{"dirty", "room"})
	if cs.DocCount() != 2 {
		t.Fatalf("DocCount = %d", cs.DocCount())
	}
	if cs.DF("room") != 2 {
		t.Errorf("DF(room) = %d, want 2", cs.DF("room"))
	}
	if cs.DF("clean") != 1 {
		t.Errorf("DF(clean) = %d, want 1 (document frequency, not term count)", cs.DF("clean"))
	}
	if cs.TermCount("clean") != 2 {
		t.Errorf("TermCount(clean) = %d, want 2", cs.TermCount("clean"))
	}
	if total := cs.State().Total; total != 5 {
		t.Errorf("State().Total = %d, want 5", total)
	}
}

func TestIDFOrdering(t *testing.T) {
	cs := NewCorpusStats()
	for i := 0; i < 10; i++ {
		doc := []string{"common"}
		if i == 0 {
			doc = append(doc, "rare")
		}
		cs.AddDocument(doc)
	}
	if cs.IDF("rare") <= cs.IDF("common") {
		t.Errorf("IDF(rare)=%v should exceed IDF(common)=%v", cs.IDF("rare"), cs.IDF("common"))
	}
	if cs.IDF("unseen") <= cs.IDF("rare") {
		t.Errorf("IDF(unseen)=%v should exceed IDF(rare)=%v", cs.IDF("unseen"), cs.IDF("rare"))
	}
}

func TestIDFPositive(t *testing.T) {
	cs := NewCorpusStats()
	cs.AddDocument([]string{"a", "b"})
	f := func(term string) bool {
		v := cs.IDF(term)
		return v > 0 && !math.IsInf(v, 0) && !math.IsNaN(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVocabulary(t *testing.T) {
	cs := NewCorpusStats()
	cs.AddDocument([]string{"x", "x", "y"})
	vocab := cs.Vocabulary(2)
	if len(vocab) != 1 || vocab[0] != "x" {
		t.Errorf("Vocabulary(2) = %v, want [x]", vocab)
	}
	if got := len(cs.Vocabulary(1)); got != 2 {
		t.Errorf("Vocabulary(1) size = %d, want 2", got)
	}
}
