// Package sentiment implements a lexicon-based sentiment analyzer in the
// spirit of NLTK's rule-based analyzers, which the paper uses as senti(·)
// in three places: ranking reviews for the co-occurrence interpreter
// (Eq. 3: BM25(d,q)·senti(d)), ordering phrases into linearly-ordered
// markers (§4.2.1), and computing review polarity statistics (Table 4).
//
// The analyzer combines a valence lexicon with negation-scope and
// intensifier handling:
//
//	"clean"            → +0.8
//	"very clean"       → +1.0 (intensified, clamped)
//	"not clean"        → -0.6 (negation flips and damps)
//	"not very clean"   → -0.75
package sentiment

import (
	"strings"

	"repro/internal/textproc"
)

// valence maps opinion words to scores in [-1, 1]. The vocabulary covers
// the hotel and restaurant domains of the paper's evaluation.
var valence = map[string]float64{
	// strongly positive
	"spotless": 1.0, "immaculate": 1.0, "pristine": 1.0, "exceptional": 1.0,
	"outstanding": 1.0, "superb": 1.0, "luxurious": 0.9, "exquisite": 1.0,
	"fantastic": 0.95, "amazing": 0.95, "wonderful": 0.9, "excellent": 0.95,
	"perfect": 1.0, "delicious": 0.9, "divine": 0.95, "heavenly": 0.95,
	"flawless": 1.0, "stellar": 0.95, "sublime": 0.95, "impeccable": 1.0,
	"gorgeous": 0.9, "stunning": 0.9, "magnificent": 0.95, "marvelous": 0.9,
	"delightful": 0.85, "extravagant": 0.7, "plush": 0.8, "lavish": 0.8,
	// positive
	"clean": 0.8, "great": 0.8, "good": 0.6, "nice": 0.6, "lovely": 0.7,
	"friendly": 0.7, "helpful": 0.7, "comfortable": 0.7, "comfy": 0.7,
	"cozy": 0.65, "quiet": 0.6, "peaceful": 0.7, "tranquil": 0.75,
	"spacious": 0.6, "modern": 0.5, "stylish": 0.6, "charming": 0.7,
	"tasty": 0.7, "fresh": 0.6, "attentive": 0.7, "courteous": 0.7,
	"welcoming": 0.7, "warm": 0.5, "pleasant": 0.6, "relaxing": 0.7,
	"romantic": 0.7, "lively": 0.5, "fun": 0.6, "soft": 0.4, "firm": 0.3,
	"convenient": 0.5, "central": 0.4, "affordable": 0.5, "cheap": 0.2,
	"generous": 0.6, "fast": 0.4, "reliable": 0.5, "kind": 0.6,
	"polite": 0.6, "professional": 0.6, "tidy": 0.7, "neat": 0.6,
	"hygienic": 0.7, "bright": 0.4, "airy": 0.5, "gleaming": 0.8,
	"inviting": 0.6, "crisp": 0.5, "authentic": 0.6, "flavorful": 0.7,
	"flavourful": 0.7, "succulent": 0.8, "juicy": 0.6, "crispy": 0.5,
	"prompt": 0.5, "efficient": 0.6, "serene": 0.7, "elegant": 0.7,
	"refined": 0.6, "hip": 0.4, "trendy": 0.4, "vibrant": 0.5,
	"energetic": 0.4, "buzzing": 0.3, "happening": 0.3, "safe": 0.5,
	"smooth": 0.4, "speedy": 0.4, "decent": 0.3, "fine": 0.3,
	"okay": 0.1, "ok": 0.1, "adequate": 0.15, "acceptable": 0.15,
	"average": 0.0, "standard": 0.05, "ordinary": 0.0, "typical": 0.0,
	"passable": 0.1, "fair": 0.1, "moderate": 0.05, "plain": -0.05,
	// negative
	"dirty": -0.8, "stained": -0.7, "dusty": -0.6, "grimy": -0.8,
	"filthy": -1.0, "disgusting": -1.0, "gross": -0.85, "moldy": -0.9,
	"mouldy": -0.9, "smelly": -0.8, "stinky": -0.85, "musty": -0.6,
	"noisy": -0.7, "loud": -0.6, "annoying": -0.7, "disturbing": -0.7,
	"rude": -0.8, "unfriendly": -0.7, "unhelpful": -0.7, "slow": -0.5,
	"cold": -0.4, "stale": -0.6, "bland": -0.5, "tasteless": -0.7,
	"flavorless": -0.7, "greasy": -0.5, "soggy": -0.5, "burnt": -0.6,
	"undercooked": -0.7, "overcooked": -0.6, "hard": -0.4, "lumpy": -0.5,
	"worn": -0.5, "worn-out": -0.6, "saggy": -0.6, "broken": -0.7,
	"old": -0.3, "outdated": -0.4, "dated": -0.35, "shabby": -0.6,
	"cramped": -0.5, "tiny": -0.4, "small": -0.2, "dark": -0.3,
	"dingy": -0.6, "dim": -0.2, "uncomfortable": -0.7, "awful": -0.95,
	"terrible": -0.95, "horrible": -0.95, "dreadful": -0.9, "appalling": -0.95,
	"disappointing": -0.6, "mediocre": -0.4, "poor": -0.6, "bad": -0.6,
	"worst": -1.0, "unacceptable": -0.9, "overpriced": -0.6, "expensive": -0.3,
	"pricey": -0.3, "chaotic": -0.6, "crowded": -0.4, "unsafe": -0.7,
	"sketchy": -0.6, "inattentive": -0.6, "careless": -0.6, "arrogant": -0.7,
	"dismissive": -0.7, "lukewarm": -0.3, "weak": -0.4, "thin": -0.3,
	"unreliable": -0.6, "spotty": -0.5, "patchy": -0.4, "creaky": -0.4,
	"squeaky": -0.3, "drab": -0.4, "dull": -0.3, "grubby": -0.7,
	"unclean": -0.8, "messy": -0.6, "cluttered": -0.4, "sticky": -0.5,
	"rough": -0.4, "harsh": -0.5, "bumpy": -0.4, "faulty": -0.6,
	"leaky": -0.6, "rusty": -0.5, "peeling": -0.5, "cracked": -0.5,
}

// intensifiers scale the valence of the following opinion word.
var intensifiers = map[string]float64{
	"very": 1.35, "really": 1.3, "extremely": 1.5, "incredibly": 1.5,
	"absolutely": 1.4, "totally": 1.35, "remarkably": 1.35, "super": 1.3,
	"exceptionally": 1.45, "spotlessly": 1.4, "utterly": 1.4, "truly": 1.3,
	"perfectly": 1.35, "amazingly": 1.4, "wonderfully": 1.35, "quite": 1.1,
	"pretty": 1.1, "fairly": 0.9, "rather": 1.05, "meticulously": 1.4,
	"impressively": 1.3, "insanely": 1.45, "seriously": 1.25,
	// diminishers
	"somewhat": 0.7, "slightly": 0.55, "a": 1.0, "bit": 0.6, "mildly": 0.6,
	"kinda": 0.7, "sorta": 0.7, "barely": 0.4, "marginally": 0.5,
}

// negators flip the sign of valence within their scope (the next few
// tokens). "far from clean" and "anything but clean" are handled by the
// two-token negator phrases below.
var negators = map[string]bool{
	"not": true, "no": true, "never": true, "hardly": true, "isn't": true,
	"wasn't": true, "aren't": true, "weren't": true, "don't": true,
	"doesn't": true, "didn't": true, "cannot": true, "can't": true,
	"won't": true, "nothing": true, "neither": true, "nor": true,
	"lacks": true, "lacking": true, "without": true,
}

// negatorBigrams are two-token sequences acting as negators.
var negatorBigrams = map[string]bool{
	"far from": true, "anything but": true, "not at": true, "less than": true,
}

// negationScope is how many following tokens a negator affects.
const negationScope = 3

// negationDamp is the factor applied after flipping: "not clean" is less
// negative than "dirty" is; classic rule-based treatment.
const negationDamp = 0.75

// Score returns the sentiment of text in [-1, 1]. It tokenizes, then scans
// for opinion words, applying any preceding intensifier and any in-scope
// negator. The result is the damped average of matched word scores; text
// with no opinion words scores 0.
func Score(text string) float64 {
	return ScoreTokens(textproc.Tokenize(text))
}

// ScoreTokens is Score over a pre-tokenized input.
func ScoreTokens(tokens []string) float64 {
	var sum float64
	var n int
	negUntil := -1 // index until which negation is active
	intensity := 1.0
	for i, tok := range tokens {
		// Two-token negators ("far from").
		if i+1 < len(tokens) && negatorBigrams[tok+" "+tokens[i+1]] {
			negUntil = i + 1 + negationScope
			continue
		}
		if negators[tok] {
			negUntil = i + negationScope
			intensity = 1.0
			continue
		}
		if f, ok := intensifiers[tok]; ok && tok != "a" {
			intensity *= f
			continue
		}
		v, ok := valence[tok]
		if !ok {
			intensity = 1.0
			continue
		}
		v *= intensity
		if i <= negUntil {
			v = -v * negationDamp
		}
		sum += clamp(v)
		n++
		intensity = 1.0
	}
	if n == 0 {
		return 0
	}
	return clamp(sum / float64(n))
}

// ScorePhrase scores a short opinion phrase such as "very clean" or
// "not so friendly". It behaves like ScoreTokens but, for phrases that
// contain no known opinion word at all, falls back to scanning for any
// substring hit so hyphenated compounds ("old-fashioned") still score.
func ScorePhrase(phrase string) float64 {
	return ScorePhraseTokens(textproc.Tokenize(phrase))
}

// ScorePhraseTokens is ScorePhrase over a pre-tokenized phrase.
func ScorePhraseTokens(toks []string) float64 {
	s := ScoreTokens(toks)
	if s != 0 {
		return s
	}
	// Fallback: split hyphenated compounds and rescore.
	var expanded []string
	for _, t := range toks {
		expanded = append(expanded, strings.Split(t, "-")...)
	}
	if len(expanded) != len(toks) {
		return ScoreTokens(expanded)
	}
	return 0
}

// Polarity buckets a score into -1 (negative), 0 (neutral) or +1 (positive)
// using the symmetric dead zone (-threshold, +threshold).
func Polarity(score, threshold float64) int {
	switch {
	case score >= threshold:
		return 1
	case score <= -threshold:
		return -1
	default:
		return 0
	}
}

// HasOpinionWord reports whether any token of the phrase is in the valence
// lexicon; used by the extraction rule baseline.
func HasOpinionWord(tokens []string) bool {
	for _, t := range tokens {
		if _, ok := valence[t]; ok {
			return true
		}
	}
	return false
}

// Valence returns the lexicon score of a single token and whether the token
// is a known opinion word.
func Valence(tok string) (float64, bool) {
	v, ok := valence[tok]
	return v, ok
}

// IsIntensifier reports whether tok is an intensity modifier.
func IsIntensifier(tok string) bool {
	_, ok := intensifiers[tok]
	return ok && tok != "a"
}

// IsNegator reports whether tok negates following sentiment.
func IsNegator(tok string) bool { return negators[tok] }

func clamp(v float64) float64 {
	if v > 1 {
		return 1
	}
	if v < -1 {
		return -1
	}
	return v
}
