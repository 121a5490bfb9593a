package router

// The wire kernel's front-door half: a shard's /query or /topk answer is
// walked, not decoded. The walk yields the fragment's top-level fields and,
// for each row, its byte span, entity id and score; the k-way merge orders
// those, and only the winners' spans travel on — spliced into the HTTP
// response as the shard wrote them, or decoded by the typed API.
//
// The walker is strict: it accepts nothing json.Valid rejects, a key it
// reads must be spelled plainly, and a row must carry an entity_id string
// and a score number. Like encoding/json it lets the last of a repeated
// key win. Scores go through strconv.ParseFloat, the bits Unmarshal gives.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// rowSpan is one ranked row of a fragment, still encoded.
type rowSpan struct {
	raw   []byte // the row object as the shard wrote it
	id    []byte // entity_id, decoded
	score float64
}

// before is the engine's ranking order: score descending, entity id
// ascending. Merging under it reproduces the monolithic sort exactly.
func (a *rowSpan) before(b *rowSpan) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	return bytes.Compare(a.id, b.id) < 0
}

// fragment is one shard's walked answer. rewritten and interpretations are
// raw JSON values (nil when absent); the counters are /topk's.
type fragment struct {
	rows                              []rowSpan
	rewritten, interpretations        []byte
	sortedAccesses, depth, candidates int
}

// scanFragment walks one shard response. The fragment's rows are appended
// to rows — one backing array serves a whole scatter — and the grown slice
// is returned; on error it is returned as it came.
func scanFragment(body []byte, rows []rowSpan) (fragment, []rowSpan, error) {
	var f fragment
	s, base := scanner{b: body}, len(rows)
	s.expect('{')
	for n := 0; s.more(n, '}'); n++ {
		switch string(s.key()) {
		case "rows":
			rows = rows[:base]
			if s.peek() == 'n' {
				s.literal("null")
				break
			}
			s.expect('[')
			for n := 0; s.more(n, ']'); n++ {
				rows = append(rows, s.row())
			}
		case "rewritten":
			f.rewritten = s.span(`"`)
		case "interpretations":
			f.interpretations = s.span("{n")
		case "sorted_accesses":
			f.sortedAccesses = s.integer()
		case "depth":
			f.depth = s.integer()
		case "candidates":
			f.candidates = s.integer()
		default:
			s.skip(1)
		}
	}
	if s.peek(); s.err == nil && s.i != len(body) {
		s.fail("data after the document")
	}
	if s.err != nil {
		return fragment{}, rows[:base], s.err
	}
	f.rows = rows[base:]
	return f, rows, nil
}

// scanner is a cursor over one JSON document. The first failure is kept in
// err and parks the cursor at the end, so callers check once, after the
// walk: every loop winds down by itself and nothing read past the failure
// is kept.
type scanner struct {
	b   []byte
	i   int
	err error
}

func (s *scanner) fail(what string) {
	if s.err == nil {
		s.err = fmt.Errorf("%s at offset %d", what, s.i)
	}
	s.i = len(s.b)
}

// peek skips whitespace and returns the next byte, 0 at the end.
func (s *scanner) peek() byte {
	for ; s.i < len(s.b); s.i++ {
		switch s.b[s.i] {
		case ' ', '\t', '\r', '\n':
		default:
			return s.b[s.i]
		}
	}
	return 0
}

func (s *scanner) expect(c byte) {
	if s.peek() != c {
		s.fail("expected '" + string(c) + "'")
		return
	}
	s.i++
}

// more steps to member n of the object or array that ends with closer,
// consuming the separator before it; false means the closer was consumed
// or the walk has failed.
func (s *scanner) more(n int, closer byte) bool {
	c := s.peek()
	if c == closer {
		s.i++
		return false
	}
	if n > 0 {
		if c != ',' {
			s.fail("expected ',' or '" + string(closer) + "'")
			return false
		}
		s.i++
	}
	return s.err == nil
}

// str consumes a string and returns the bytes between its quotes. plain
// reports that those bytes are the value itself: ASCII with no escapes.
func (s *scanner) str() (tok []byte, plain bool) {
	s.expect('"')
	start := s.i
	plain = true
	for s.i < len(s.b) {
		c := s.b[s.i]
		s.i++
		switch {
		case c == '"':
			return s.b[start : s.i-1], plain
		case c == '\\':
			plain = false
			switch rest := s.b[s.i:]; {
			case len(rest) >= 5 && rest[0] == 'u' && isHex(rest[1]) && isHex(rest[2]) && isHex(rest[3]) && isHex(rest[4]):
				s.i += 5
			case len(rest) >= 1 && strings.IndexByte(`"\/bfnrt`, rest[0]) >= 0:
				s.i++
			default:
				s.fail("bad escape")
			}
		case c < ' ':
			s.fail("control character in string")
		case c >= 0x80:
			plain = false
		}
	}
	s.fail("unterminated string")
	return nil, false
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// key consumes a member name the walker dispatches on, and the colon.
func (s *scanner) key() []byte {
	k, plain := s.str()
	if !plain {
		s.fail("escaped key")
	}
	s.expect(':')
	return k
}

// at consumes the next byte if it is one of set.
func (s *scanner) at(set string) bool {
	if s.i == len(s.b) || strings.IndexByte(set, s.b[s.i]) < 0 {
		return false
	}
	s.i++
	return true
}

// digits consumes a run of digits and reports whether there was one.
func (s *scanner) digits() bool {
	start := s.i
	for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
		s.i++
	}
	return s.i > start
}

// number consumes a JSON number and returns its text.
func (s *scanner) number() []byte {
	s.peek()
	start := s.i
	s.at("-")
	ok := s.at("0") || s.digits()
	if ok && s.at(".") {
		ok = s.digits()
	}
	if ok && s.at("eE") {
		s.at("+-")
		ok = s.digits()
	}
	if !ok {
		s.fail("bad number")
		return nil
	}
	return s.b[start:s.i]
}

func (s *scanner) integer() int {
	n, err := strconv.Atoi(string(s.number()))
	if err != nil {
		s.fail("expected an integer")
	}
	return n
}

// maxDepth bounds nesting, and with it the recursion; a shard response is
// four levels deep.
const maxDepth = 32

// skip consumes one value of any kind, validating it.
func (s *scanner) skip(depth int) {
	switch c := s.peek(); c {
	case '{', '[':
		if depth == maxDepth {
			s.fail("nesting too deep")
			return
		}
		s.i++
		// In ASCII both closers sit two past their openers.
		for n := 0; s.more(n, c+2); n++ {
			if c == '{' {
				s.str()
				s.expect(':')
			}
			s.skip(depth + 1)
		}
	case '"':
		s.str()
	case 't':
		s.literal("true")
	case 'f':
		s.literal("false")
	case 'n':
		s.literal("null")
	default:
		s.number()
	}
}

func (s *scanner) literal(lit string) {
	if !bytes.HasPrefix(s.b[s.i:], []byte(lit)) {
		s.fail("expected " + lit)
		return
	}
	s.i += len(lit)
}

// span consumes one value whose first byte is one of kinds and returns its
// text.
func (s *scanner) span(kinds string) []byte {
	if strings.IndexByte(kinds, s.peek()) < 0 {
		s.fail("unexpected value")
	}
	start := s.i
	s.skip(1)
	return s.b[start:s.i]
}

// row consumes one row object.
func (s *scanner) row() (r rowSpan) {
	s.expect('{')
	start, haveID, haveScore := s.i-1, false, false
	for n := 0; s.more(n, '}'); n++ {
		switch string(s.key()) {
		case "entity_id":
			s.peek()
			quoted := s.i
			id, plain := s.str()
			if !plain && s.err == nil {
				// Escapes and non-ASCII are for encoding/json to decode.
				var decoded string
				if json.Unmarshal(s.b[quoted:s.i], &decoded) != nil {
					s.fail("bad entity_id")
				}
				id = []byte(decoded)
			}
			r.id, haveID = id, true
		case "score":
			var err error
			if r.score, err = strconv.ParseFloat(string(s.number()), 64); err != nil {
				s.fail("score out of range")
			}
			haveScore = true
		default:
			s.skip(2)
		}
	}
	if !haveID || !haveScore {
		s.fail("row without entity_id or score")
	}
	if s.err == nil {
		r.raw = s.b[start:s.i]
	}
	return r
}

// mergeRows merges per-shard ranked lists (each already in ranking order)
// into the global top k and returns the winners' spans. lists is consumed
// as the heap: at most one cursor per shard, so the merge is
// O((k + s) log s) and never concatenates and re-sorts.
func mergeRows(lists [][]rowSpan, k int) [][]byte {
	h, total := lists[:0], 0
	for _, l := range lists {
		if total += len(l); len(l) > 0 {
			h = append(h, l)
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	// Allocate by what can actually be merged, not by k: k comes straight
	// from the request, and make(..., 0, 9e18) would panic while a merely
	// huge k would allocate unbounded memory per request.
	k = max(0, min(k, total))
	out := make([][]byte, 0, k)
	for len(out) < k {
		out = append(out, h[0][0].raw)
		if h[0] = h[0][1:]; len(h[0]) == 0 {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		siftDown(h, 0)
	}
	return out
}

// siftDown restores the heap order below h[i]; cursors compare by their
// head rows.
func siftDown(h [][]rowSpan, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1][0].before(&h[c][0]) {
			c++
		}
		if !h[c][0].before(&h[i][0]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}
