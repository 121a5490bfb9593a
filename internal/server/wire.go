package server

// The wire kernel's shard half: the /query, /topk and /interpret
// responses are appended into one buffer instead of walked by reflection.
//
// The rule is byte identity. For every value these encoders accept, the
// bytes are exactly what encoding/json's Encoder with SetEscapeHTML(false)
// writes — field order, omitempty, map keys sorted bytewise, the ES6
// number form, the string escapes, the trailing newline — so a routed
// fleet, a monolith and every earlier release answer alike, and the router
// may forward a shard's row bytes untouched (internal/router/fragment.go).
// wire_test.go holds the encoders to that rule against encoding/json
// itself; a new field in one of the three types needs a line here.

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
	"unicode/utf8"
)

// encoder is one response body being composed. WriteJSON encodes into it
// before anything reaches the client, so a failed encode can still become
// a 500.
type encoder struct {
	buf []byte
	// keys is scratch for sorting one map's keys at a time.
	keys []string
	// err is the first value JSON cannot carry.
	err error
}

// encoders recycles buffers between responses.
var encoders = sync.Pool{New: func() interface{} { return new(encoder) }}

// maxPooledBuffer keeps one huge answer from pinning its buffer forever.
const maxPooledBuffer = 64 << 10

// Write lets encoding/json's Encoder fill the same buffer on the
// reflective path.
func (e *encoder) Write(p []byte) (int, error) {
	e.buf = append(e.buf, p...)
	return len(p), nil
}

// wireAppender marks the response types rendered by hand.
type wireAppender interface{ appendJSON(e *encoder) }

func (r *QueryResponse) appendJSON(e *encoder) {
	e.str(`{"rewritten":`, r.Rewritten)
	e.raw(`,"interpretations":`)
	if r.Interpretations == nil {
		e.raw("null")
	} else {
		e.raw("{")
		for i, k := range sortedKeys(e, r.Interpretations) {
			if i > 0 {
				e.raw(",")
			}
			e.str("", k)
			in := r.Interpretations[k]
			e.appendInterpretation(":", &in)
		}
		e.raw("}")
	}
	e.appendRows(`,"rows":`, r.Rows)
	e.float(`,"elapsed_ms":`, r.ElapsedMs)
	e.raw("}")
}

func (r *TopKResponse) appendJSON(e *encoder) {
	e.appendRows(`{"rows":`, r.Rows)
	e.int(`,"sorted_accesses":`, r.SortedAccesses)
	e.int(`,"depth":`, r.Depth)
	e.int(`,"candidates":`, r.Candidates)
	e.float(`,"elapsed_ms":`, r.ElapsedMs)
	e.raw("}")
}

func (r *InterpretResponse) appendJSON(e *encoder) {
	e.appendInterpretation(`{"chosen":`, &r.Chosen)
	e.appendInterpretation(`,"w2v_only":`, &r.W2VOnly)
	e.appendInterpretation(`,"cooccur_only":`, &r.CooccurOnly)
	e.raw("}")
}

func (e *encoder) appendInterpretation(key string, in *InterpretationJSON) {
	e.raw(key)
	e.str(`{"predicate":`, in.Predicate)
	e.str(`,"method":`, in.Method)
	e.str(`,"rendered":`, in.Rendered)
	if len(in.Terms) > 0 {
		sep := `,"terms":[`
		for _, t := range in.Terms {
			e.str(sep, t)
			sep = ","
		}
		e.raw("]")
	}
	if in.Disjunction {
		e.raw(`,"disjunction":true`)
	}
	if in.MatchedPhrase != "" {
		e.str(`,"matched_phrase":`, in.MatchedPhrase)
	}
	e.float(`,"similarity":`, in.Similarity)
	e.raw("}")
}

func (e *encoder) appendRows(key string, rows []RowJSON) {
	e.raw(key)
	if rows == nil {
		e.raw("null")
		return
	}
	e.raw("[")
	for i := range rows {
		if i > 0 {
			e.raw(",")
		}
		e.appendRow(&rows[i])
	}
	e.raw("]")
}

func (e *encoder) appendRow(r *RowJSON) {
	e.str(`{"entity_id":`, r.EntityID)
	if r.Name != "" {
		e.str(`,"name":`, r.Name)
	}
	e.float(`,"score":`, r.Score)
	if len(r.PredicateScores) > 0 {
		sep := `,"predicate_scores":{`
		for _, k := range sortedKeys(e, r.PredicateScores) {
			e.str(sep, k)
			e.float(":", r.PredicateScores[k])
			sep = ","
		}
		e.raw("}")
	}
	e.raw("}")
}

// sortedKeys returns m's keys in encoding/json's order, in e's scratch:
// the slice is good until the next call.
func sortedKeys[V any](e *encoder, m map[string]V) []string {
	e.keys = e.keys[:0]
	for k := range m {
		e.keys = append(e.keys, k)
	}
	sort.Strings(e.keys)
	return e.keys
}

// raw appends s as it is; str, float and int append a value after the raw
// text — a key, a separator — that leads up to it.
func (e *encoder) raw(s string)      { e.buf = append(e.buf, s...) }
func (e *encoder) str(pre, s string) { e.buf = appendString(append(e.buf, pre...), s) }
func (e *encoder) int(pre string, n int) {
	e.buf = strconv.AppendInt(append(e.buf, pre...), int64(n), 10)
}
func (e *encoder) float(pre string, f float64) {
	var err error
	if e.buf, err = AppendFloat(append(e.buf, pre...), f); err != nil && e.err == nil {
		e.err = err
	}
}

// AppendFloat appends f as encoding/json renders a float64: the shortest
// digits that round-trip, exponent form below 1e-6 and from 1e21. NaN and
// the infinities have no JSON form and are an error.
func AppendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 is written e-9.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string with encoding/json's escapes
// (HTML escaping off): the two-character forms where JSON has one, \u00XX
// for the other control characters, \ufffd for each invalid UTF-8 byte,
// and U+2028/U+2029 always escaped.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			start = i + size
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			start = i + size
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
