package sentiment

import (
	"testing"
	"testing/quick"
)

func TestPositiveNegative(t *testing.T) {
	cases := []struct {
		text string
		sign int
	}{
		{"the room was spotless", 1},
		{"the room was very clean", 1},
		{"the room was filthy", -1},
		{"the staff was rude and unhelpful", -1},
		{"exceptional service and luxurious bathrooms", 1},
		{"the carpet was stained and dusty", -1},
		{"delicious food, friendly staff", 1},
		{"bland tasteless food", -1},
	}
	for _, c := range cases {
		s := Score(c.text)
		if c.sign > 0 && s <= 0 {
			t.Errorf("Score(%q) = %v, want positive", c.text, s)
		}
		if c.sign < 0 && s >= 0 {
			t.Errorf("Score(%q) = %v, want negative", c.text, s)
		}
	}
}

func TestNegationFlips(t *testing.T) {
	pos := Score("the room was clean")
	neg := Score("the room was not clean")
	if pos <= 0 {
		t.Fatalf("baseline positive failed: %v", pos)
	}
	if neg >= 0 {
		t.Errorf("negated score = %v, want negative", neg)
	}
	// Negation is damped: |not clean| < |clean|.
	if -neg >= pos {
		t.Errorf("negation should damp: |%v| >= |%v|", neg, pos)
	}
}

func TestNegationBigram(t *testing.T) {
	if s := Score("the room was far from clean"); s >= 0 {
		t.Errorf("'far from clean' = %v, want negative", s)
	}
	if s := Score("anything but clean"); s >= 0 {
		t.Errorf("'anything but clean' = %v, want negative", s)
	}
}

func TestNegationScopeExpires(t *testing.T) {
	// Negator followed by several tokens before the opinion word: out of scope.
	s := Score("not the kind of place one expects but the room was clean anyway")
	if s <= 0 {
		t.Errorf("out-of-scope negation should not flip: %v", s)
	}
}

func TestIntensifiers(t *testing.T) {
	base := Score("clean room")
	very := Score("very clean room")
	extremely := Score("extremely clean room")
	if very <= base {
		t.Errorf("'very clean' (%v) should exceed 'clean' (%v)", very, base)
	}
	if extremely < very {
		t.Errorf("'extremely clean' (%v) should be >= 'very clean' (%v)", extremely, very)
	}
	slightly := Score("slightly dirty room")
	plain := Score("dirty room")
	if slightly <= plain {
		// both negative; slightly dirty should be closer to 0
		t.Errorf("'slightly dirty' (%v) should be milder than 'dirty' (%v)", slightly, plain)
	}
}

func TestIntensifiedNegation(t *testing.T) {
	s := Score("not very clean")
	if s >= 0 {
		t.Errorf("'not very clean' = %v, want negative", s)
	}
}

func TestNeutral(t *testing.T) {
	if s := Score("the hotel is in London near the station"); s != 0 {
		t.Errorf("objective text scored %v, want 0", s)
	}
	if s := Score(""); s != 0 {
		t.Errorf("empty text scored %v, want 0", s)
	}
}

func TestScoreBounded(t *testing.T) {
	f := func(text string) bool {
		s := Score(text)
		return s >= -1 && s <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestScoreOrderingOnScale(t *testing.T) {
	// The linearly-ordered marker discovery (§4.2.1) sorts phrases by
	// sentiment; verify the cleanliness scale is monotone.
	scale := []string{"filthy", "dirty", "average", "clean", "spotless"}
	prev := -2.0
	for _, p := range scale {
		s := ScorePhrase(p)
		if s < prev {
			t.Errorf("scale not monotone at %q: %v < %v", p, s, prev)
		}
		prev = s
	}
}

func TestScorePhraseHyphenFallback(t *testing.T) {
	if s := ScorePhrase("old-styled"); s >= 0 {
		t.Errorf("'old-styled' = %v, want negative via hyphen fallback", s)
	}
}

func TestValenceLookup(t *testing.T) {
	if v, ok := Valence("spotless"); !ok || v <= 0.9 {
		t.Errorf("Valence(spotless) = %v, %v", v, ok)
	}
	if _, ok := Valence("table"); ok {
		t.Error("'table' should not be an opinion word")
	}
}

func TestHelpers(t *testing.T) {
	if !IsIntensifier("very") || IsIntensifier("a") || IsIntensifier("room") {
		t.Error("IsIntensifier misbehaves")
	}
	if !IsNegator("not") || IsNegator("very") {
		t.Error("IsNegator misbehaves")
	}
}
