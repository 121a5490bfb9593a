package snapshot

// Hand-rolled binary codecs for the snapshot sections. gob's
// reflection-driven decoding was ~70% of snapshot load time (the whole
// point of a snapshot is a millisecond cold start), so every section
// except the tiny metadata one uses an explicit length-prefixed encoding
// over the packages' exported state seams. All integers are
// uvarint/varint, floats are fixed 8-byte IEEE-754 bits (bit-exact
// round-trip, which the byte-identical query guarantee depends on),
// strings and slices are length-prefixed. Maps are written in sorted key
// order, so every section payload is byte-stable across identical builds
// — operators can diff or hash artifacts to confirm replicas carry the
// same build (only the meta section varies, by its creation timestamp).
//
// These codecs decode payloads that already passed the container CRC, so
// a decode failure means a format bug or a version mismatch the header
// check missed; they still fail with errors, never panics, via the
// sticky-error reader. They accept only the writer's canonical bytes: a
// varint with a shorter encoding, or a map key that does not strictly
// follow the one before it, is malformed.

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/embedding"
	"repro/internal/extract"
	"repro/internal/fuzzy"
	"repro/internal/ir"
	"repro/internal/relstore"
)

// enc is an append-only binary writer.
type enc struct {
	b   []byte
	err error
}

func (e *enc) u8(v byte)        { e.b = append(e.b, v) }
func (e *enc) uvarint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }
func (e *enc) varint(v int64)   { e.b = binary.AppendVarint(e.b, v) }
func (e *enc) f64(v float64)    { e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(v)) }
func (e *enc) boolean(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}
func (e *enc) str(s string) {
	e.uvarint(uint64(len(s)))
	e.b = append(e.b, s...)
}
func (e *enc) f64s(v []float64) {
	e.uvarint(uint64(len(v)))
	for _, f := range v {
		e.f64(f)
	}
}
func (e *enc) ints(v []int) {
	e.uvarint(uint64(len(v)))
	for _, x := range v {
		e.varint(int64(x))
	}
}
func (e *enc) strs(v []string) {
	e.uvarint(uint64(len(v)))
	for _, s := range v {
		e.str(s)
	}
}

// dec is a sticky-error binary reader over one section payload.
type dec struct {
	b       []byte
	off     int
	section string
	err     error
}

func (d *dec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("snapshot: decode %s: malformed %s at offset %d", d.section, what, d.off)
	}
}
func (d *dec) u8() byte {
	if d.err != nil || d.off >= len(d.b) {
		d.fail("byte")
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}
func (d *dec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 || overlong(d.b[d.off:], n) {
		d.fail("uvarint")
		return 0
	}
	d.off += n
	return v
}
func (d *dec) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 || overlong(d.b[d.off:], n) {
		d.fail("varint")
		return 0
	}
	d.off += n
	return v
}

// overlong reports whether the n-byte varint at the start of b has a
// shorter encoding: a final zero group adds nothing to the value, and the
// writer never emits one.
func overlong(b []byte, n int) bool { return n > 1 && b[n-1] == 0 }

func (d *dec) f64() float64 {
	if d.err != nil || d.off+8 > len(d.b) {
		d.fail("float64")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b[d.off:]))
	d.off += 8
	return v
}
func (d *dec) boolean() bool { return d.u8() != 0 }

// count reads a length prefix and sanity-bounds it by the bytes left
// (every counted element occupies at least one byte), so a corrupt
// length cannot drive a huge allocation.
func (d *dec) count(what string) int {
	v := d.uvarint()
	if d.err == nil && v > uint64(len(d.b)-d.off) {
		d.fail(what + " count")
		return 0
	}
	return int(v)
}
func (d *dec) str() string { return string(d.strBytes()) }

// strBytes reads a string's bytes, aliasing the payload.
func (d *dec) strBytes() []byte {
	n := d.count("string")
	if d.err != nil || d.off+n > len(d.b) {
		d.fail("string")
		return nil
	}
	b := d.b[d.off : d.off+n]
	d.off += n
	return b
}

// i32 reads a uvarint that must fit an int32.
func (d *dec) i32(what string) int32 {
	v := d.uvarint()
	if v > math.MaxInt32 {
		d.fail(what)
		return 0
	}
	return int32(v)
}

// vi32 reads a varint that must fit an int32, refusing it as a malformed
// what before it could be truncated.
func (d *dec) vi32(what string) int32 {
	v := d.varint()
	if v < math.MinInt32 || v > math.MaxInt32 {
		d.fail(what)
		return 0
	}
	return int32(v)
}

// internStr is str returning the copy intern already holds, if any.
func (d *dec) internStr(intern map[string]string) string {
	b := d.strBytes()
	if s, ok := intern[string(b)]; ok {
		return s
	}
	s := string(b)
	intern[s] = s
	return s
}
func (d *dec) f64s() []float64 {
	n := d.uvarint()
	if d.err != nil || n > uint64((len(d.b)-d.off)/8) {
		d.fail("float64 slice")
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.f64()
	}
	return out
}
func (d *dec) ints() []int {
	n := d.count("int slice")
	if d.err != nil {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(d.varint())
	}
	return out
}
func (d *dec) strs() []string {
	n := d.count("string slice")
	if d.err != nil {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.str()
	}
	return out
}
func (d *dec) finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("snapshot: decode %s: %d trailing bytes", d.section, len(d.b)-d.off)
	}
	return nil
}

// key reads the next key of a list the writer emits in sortedKeys order,
// refusing one that does not strictly follow the key before it (a
// repeated or out-of-order key); first marks the list's first key.
func (d *dec) key(prev string, first bool) string {
	k := d.str()
	if !first && k <= prev {
		d.fail("key order")
	}
	return k
}

// sortedKeys returns a map's keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func (e *enc) stringIntMap(m map[string]int) {
	e.uvarint(uint64(len(m)))
	for _, k := range sortedKeys(m) {
		e.str(k)
		e.varint(int64(m[k]))
	}
}
func (d *dec) stringIntMap() map[string]int {
	n := d.count("map")
	m := make(map[string]int, n)
	k := ""
	for i := 0; i < n; i++ {
		k = d.key(k, i == 0)
		m[k] = int(d.varint())
	}
	return m
}

func (e *enc) stringF64Map(m map[string]float64) {
	e.uvarint(uint64(len(m)))
	for _, k := range sortedKeys(m) {
		e.str(k)
		e.f64(m[k])
	}
}
func (d *dec) stringF64Map() map[string]float64 {
	n := d.count("map")
	m := make(map[string]float64, n)
	k := ""
	for i := 0; i < n; i++ {
		k = d.key(k, i == 0)
		m[k] = d.f64()
	}
	return m
}

// ---- relstore.Table ----

// encodeRel writes the Entities relation as a list of one table: the
// table count, then its name, key, columns and rows (the layout dates
// from when the section held several relations). NewTable checked every
// value against its column's type, so the value's own type picks the
// encoding.
func encodeRel(t *relstore.Table) []byte {
	e := &enc{}
	schema := t.Schema()
	e.uvarint(1)
	e.str(schema.Name)
	e.str(schema.Key)
	e.uvarint(uint64(len(schema.Columns)))
	for _, col := range schema.Columns {
		e.str(col.Name)
		e.uvarint(uint64(col.Type))
	}
	e.uvarint(uint64(t.Len()))
	for i := 0; i < t.Len(); i++ {
		for _, v := range t.Row(i) {
			if v == nil {
				e.u8(0)
				continue
			}
			e.u8(1)
			switch x := v.(type) {
			case string:
				e.str(x)
			case int64:
				e.varint(x)
			case float64:
				e.f64(x)
			case bool:
				e.boolean(x)
			}
		}
	}
	return e.b
}

// decodeRel accepts exactly what encodeRel writes: one table, named
// Entities and keyed by id, whose rows relstore.NewTable validates
// (arity, column types, unique ascending string ids).
func decodeRel(payload []byte) (*relstore.Table, error) {
	d := &dec{b: payload, section: SectionRel}
	if n := d.uvarint(); d.err == nil && n != 1 {
		return nil, fmt.Errorf("snapshot: %s: %d tables, want 1", SectionRel, n)
	}
	schema := relstore.Schema{Name: d.str(), Key: d.str()}
	if d.err == nil && (schema.Name != relstore.EntitiesName || schema.Key != relstore.EntityKey) {
		return nil, fmt.Errorf("snapshot: %s: table %s keyed by %q, want %s keyed by %q",
			SectionRel, schema.Name, schema.Key, relstore.EntitiesName, relstore.EntityKey)
	}
	ncols := d.count("column")
	for c := 0; c < ncols && d.err == nil; c++ {
		schema.Columns = append(schema.Columns, relstore.Column{
			Name: d.str(),
			Type: relstore.Type(d.uvarint()),
		})
	}
	nrows := d.count("row")
	rows := make([]relstore.Row, 0, nrows)
	for r := 0; r < nrows && d.err == nil; r++ {
		row := make(relstore.Row, len(schema.Columns))
		for ci := range schema.Columns {
			if d.u8() == 0 {
				continue // NULL
			}
			switch schema.Columns[ci].Type {
			case relstore.TString:
				row[ci] = d.str()
			case relstore.TInt:
				row[ci] = d.varint()
			case relstore.TFloat:
				row[ci] = d.f64()
			case relstore.TBool:
				row[ci] = d.boolean()
			default:
				d.fail("column type")
			}
		}
		rows = append(rows, row)
	}
	if err := d.finish(); err != nil {
		return nil, err
	}
	t, err := relstore.NewTable(schema, rows)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %s: %w", SectionRel, err)
	}
	return t, nil
}

// ---- embedding.ModelState ----

func encodeEmbeddingState(st embedding.ModelState) []byte {
	e := &enc{}
	e.uvarint(uint64(st.Dim))
	e.uvarint(uint64(len(st.Vecs)))
	for _, w := range sortedKeys(st.Vecs) {
		e.str(w)
		e.f64s(st.Vecs[w])
	}
	e.uvarint(uint64(st.Stats.DocCount))
	e.stringIntMap(st.Stats.DF)
	e.stringIntMap(st.Stats.TermCount)
	e.varint(st.Stats.Total)
	return e.b
}

func decodeEmbeddingState(payload []byte) (embedding.ModelState, error) {
	d := &dec{b: payload, section: SectionEmbedding}
	st := embedding.ModelState{Dim: int(d.uvarint())}
	nvecs := d.count("vector")
	st.Vecs = make(map[string]embedding.Vector, nvecs)
	w := ""
	for i := 0; i < nvecs && d.err == nil; i++ {
		w = d.key(w, i == 0)
		st.Vecs[w] = d.f64s()
	}
	st.Stats.DocCount = int(d.uvarint())
	st.Stats.DF = d.stringIntMap()
	st.Stats.TermCount = d.stringIntMap()
	st.Stats.Total = d.varint()
	return st, d.finish()
}

// ---- ir.IndexState ----

func encodeIndexState(st ir.IndexState) []byte {
	e := &enc{}
	e.strs(st.DocIDs)
	e.ints(st.DocLen)
	e.varint(st.TotalLen)
	e.uvarint(uint64(len(st.Postings)))
	for _, term := range sortedKeys(st.Postings) {
		e.str(term)
		plist := st.Postings[term]
		e.uvarint(uint64(len(plist)))
		for _, p := range plist {
			e.varint(int64(p.Doc))
			e.varint(int64(p.TF))
		}
	}
	return e.b
}

func decodeIndexState(payload []byte, section string) (ir.IndexState, error) {
	d := &dec{b: payload, section: section}
	st := ir.IndexState{
		DocIDs:   d.strs(),
		DocLen:   d.ints(),
		TotalLen: d.varint(),
	}
	nterms := d.count("term")
	st.Postings = make(map[string][]ir.Posting, nterms)
	term := ""
	for i := 0; i < nterms && d.err == nil; i++ {
		term = d.key(term, i == 0)
		nposts := d.count("posting")
		plist := make([]ir.Posting, 0, nposts)
		for p := 0; p < nposts && d.err == nil; p++ {
			plist = append(plist, ir.Posting{Doc: d.vi32("posting"), TF: d.vi32("posting")})
		}
		st.Postings[term] = plist
	}
	return st, d.finish()
}

// ---- core.DBState ----

func (e *enc) config(cfg core.Config) {
	e.varint(int64(cfg.MarkersPerAttr))
	e.f64(cfg.W2VThreshold)
	e.f64(cfg.CooccurThreshold)
	e.varint(int64(cfg.CooccurTopK))
	e.varint(int64(cfg.CooccurTopN))
	e.f64(cfg.CooccurMinIDF)
	e.f64(cfg.FallbackCenter)
	e.f64(cfg.MinClassifierConfidence)
	e.f64(cfg.MinPhraseCoverage)
	e.varint(int64(cfg.FuzzyVariant))
	e.varint(int64(cfg.MinPhraseCount))
	e.varint(int64(cfg.Embedding.Dim))
	e.varint(int64(cfg.Embedding.Window))
	e.varint(int64(cfg.Embedding.Negatives))
	e.varint(int64(cfg.Embedding.Epochs))
	e.f64(cfg.Embedding.LR)
	e.varint(int64(cfg.Embedding.MinCount))
	e.varint(int64(cfg.TaggerEpochs))
	e.varint(cfg.Seed)
	e.varint(int64(cfg.BuildWorkers))
}

func (d *dec) config() core.Config {
	var cfg core.Config
	cfg.MarkersPerAttr = int(d.varint())
	cfg.W2VThreshold = d.f64()
	cfg.CooccurThreshold = d.f64()
	cfg.CooccurTopK = int(d.varint())
	cfg.CooccurTopN = int(d.varint())
	cfg.CooccurMinIDF = d.f64()
	cfg.FallbackCenter = d.f64()
	cfg.MinClassifierConfidence = d.f64()
	cfg.MinPhraseCoverage = d.f64()
	cfg.FuzzyVariant = fuzzy.Variant(d.varint())
	cfg.MinPhraseCount = int(d.varint())
	cfg.Embedding.Dim = int(d.varint())
	cfg.Embedding.Window = int(d.varint())
	cfg.Embedding.Negatives = int(d.varint())
	cfg.Embedding.Epochs = int(d.varint())
	cfg.Embedding.LR = d.f64()
	cfg.Embedding.MinCount = int(d.varint())
	cfg.TaggerEpochs = int(d.varint())
	cfg.Seed = d.varint()
	cfg.BuildWorkers = int(d.varint())
	return cfg
}

func (e *enc) logReg(m *classify.LogReg) {
	if m == nil {
		e.u8(0)
		return
	}
	e.u8(1)
	e.f64s(m.W)
	e.f64(m.Bias)
}

func (e *enc) summary(s *core.MarkerSummary) {
	e.f64s(s.Counts)
	e.f64s(s.SentSum)
	e.uvarint(uint64(len(s.VecSum)))
	for _, v := range s.VecSum {
		e.f64s(v)
	}
	e.f64(s.Total)
	e.uvarint(uint64(len(s.Provenance)))
	for _, ids := range s.Provenance {
		e.ints(ids)
	}
}

func (d *dec) summary() *core.MarkerSummary {
	s := &core.MarkerSummary{
		Counts:  d.f64s(),
		SentSum: d.f64s(),
	}
	nvec := d.count("vecsum")
	s.VecSum = make([]embedding.Vector, nvec)
	for i := 0; i < nvec && d.err == nil; i++ {
		s.VecSum[i] = d.f64s()
	}
	s.Total = d.f64()
	nprov := d.count("provenance")
	s.Provenance = make([][]int, nprov)
	for i := 0; i < nprov && d.err == nil; i++ {
		s.Provenance[i] = d.ints()
	}
	return s
}

func encodeCoreState(st *core.DBState) []byte {
	e := &enc{}
	e.str(st.Name)
	e.config(st.Cfg)

	e.uvarint(uint64(len(st.Attrs)))
	for _, a := range st.Attrs {
		e.str(a.Name)
		e.boolean(a.Categorical)
		e.uvarint(uint64(len(a.Markers)))
		for _, m := range a.Markers {
			e.str(m.Name)
			e.f64(m.Sentiment)
			e.f64s(m.Centroid)
		}
		e.stringIntMap(a.DomainPhrases)
		e.stringIntMap(a.PhraseMarker)
	}

	e.uvarint(uint64(len(st.Summaries)))
	for _, attr := range sortedKeys(st.Summaries) {
		e.str(attr)
		byEntity := st.Summaries[attr]
		e.uvarint(uint64(len(byEntity)))
		for _, entity := range sortedKeys(byEntity) {
			e.str(entity)
			e.summary(byEntity[entity])
		}
	}

	// The review → opinion table: the document count, each document's
	// opinion count, then every opinion's (attribute, marker) pair.
	docs := max(len(st.OpStart)-1, 0)
	e.uvarint(uint64(docs))
	for d := 0; d < docs; d++ {
		e.uvarint(uint64(st.OpStart[d+1] - st.OpStart[d]))
	}
	for _, op := range st.Ops {
		e.uvarint(uint64(op.Attr))
		e.uvarint(uint64(op.Marker))
	}

	// The served rows, without the review, attribute and marker their id's
	// opinion records (core.FromState sets those).
	e.uvarint(uint64(len(st.Extractions)))
	for i := range st.Extractions {
		x := &st.Extractions[i]
		e.varint(int64(x.ID))
		e.str(x.EntityID)
		e.str(x.Reviewer)
		e.varint(int64(x.Day))
		e.str(x.Aspect)
		e.str(x.Phrase)
		e.f64(x.Sentiment)
	}

	e.stringF64Map(st.ReviewSentiments)
	e.stringIntMap(st.ReviewsPerReviewer)

	e.logReg(st.Membership.MarkerLR)
	e.logReg(st.Membership.ScanLR)
	e.f64(st.Membership.MarkerAccuracy)
	e.f64(st.Membership.ScanAccuracy)
	return e.b
}

func decodeCoreState(payload []byte) (*core.DBState, error) {
	d := &dec{b: payload, section: SectionCore}
	st := &core.DBState{Name: d.str(), Cfg: d.config()}

	nattrs := d.count("attribute")
	for i := 0; i < nattrs && d.err == nil; i++ {
		a := core.AttributeState{Name: d.str(), Categorical: d.boolean()}
		nmarkers := d.count("marker")
		for m := 0; m < nmarkers && d.err == nil; m++ {
			a.Markers = append(a.Markers, core.Marker{
				Name:      d.str(),
				Sentiment: d.f64(),
				Centroid:  d.f64s(),
			})
		}
		a.DomainPhrases = d.stringIntMap()
		a.PhraseMarker = d.stringIntMap()
		st.Attrs = append(st.Attrs, a)
	}

	nsum := d.count("summary attribute")
	st.Summaries = make(map[string]map[string]*core.MarkerSummary, nsum)
	attr := ""
	for i := 0; i < nsum && d.err == nil; i++ {
		attr = d.key(attr, i == 0)
		nent := d.count("summary entity")
		byEntity := make(map[string]*core.MarkerSummary, nent)
		entity := ""
		for j := 0; j < nent && d.err == nil; j++ {
			entity = d.key(entity, j == 0)
			byEntity[entity] = d.summary()
		}
		st.Summaries[attr] = byEntity
	}

	// Every opinion occupies at least two bytes after the counts, so a
	// running total the bytes left (or an int32) cannot hold is corrupt;
	// refusing it before the append keeps it out of the offsets and the
	// allocation below.
	docs := d.count("document")
	st.OpStart = make([]int32, 1, docs+1)
	for i := 0; i < docs && d.err == nil; i++ {
		n, left := d.uvarint(), min(uint64(len(d.b)-d.off), math.MaxInt32)
		if n > left || uint64(st.OpStart[i])+n > left {
			d.fail("opinion count")
			break
		}
		st.OpStart = append(st.OpStart, st.OpStart[i]+int32(n))
	}
	if d.err != nil {
		return nil, d.err
	}
	nops := int(st.OpStart[docs])
	st.Ops = make([]core.ReviewOpinion, nops)
	for i := 0; i < nops && d.err == nil; i++ {
		st.Ops[i] = core.ReviewOpinion{Attr: d.i32("attribute"), Marker: d.i32("marker")}
	}

	// Rows repeat a few thousand distinct strings; one copy each.
	intern := map[string]string{}
	next := d.count("extraction")
	st.Extractions = make([]core.Extraction, 0, next)
	for i := 0; i < next && d.err == nil; i++ {
		st.Extractions = append(st.Extractions, core.Extraction{
			ID:        int(d.varint()),
			EntityID:  d.internStr(intern),
			Reviewer:  d.internStr(intern),
			Day:       int(d.varint()),
			Aspect:    d.internStr(intern),
			Phrase:    d.internStr(intern),
			Sentiment: d.f64(),
		})
	}

	st.ReviewSentiments = d.stringF64Map()
	st.ReviewsPerReviewer = d.stringIntMap()

	st.Membership.MarkerLR = d.decodeLogReg()
	st.Membership.ScanLR = d.decodeLogReg()
	st.Membership.MarkerAccuracy = d.f64()
	st.Membership.ScanAccuracy = d.f64()
	return st, d.finish()
}

func (d *dec) decodeLogReg() *classify.LogReg {
	if d.u8() == 0 {
		return nil
	}
	return &classify.LogReg{W: d.f64s(), Bias: d.f64()}
}

// ---- extract.PerceptronState ----

func encodeExtractorState(st extract.PerceptronState) []byte {
	e := &enc{}
	e.uvarint(extract.NumTags)
	e.uvarint(uint64(len(st.Weights)))
	for _, feat := range sortedKeys(st.Weights) {
		e.str(feat)
		w := st.Weights[feat]
		for t := 0; t < extract.NumTags; t++ {
			e.f64(w[t])
		}
	}
	for i := 0; i < extract.NumTags; i++ {
		for j := 0; j < extract.NumTags; j++ {
			e.f64(st.Trans[i][j])
		}
	}
	return e.b
}

func decodeExtractorState(payload []byte) (extract.PerceptronState, error) {
	d := &dec{b: payload, section: SectionExtractor}
	var st extract.PerceptronState
	if n := d.uvarint(); d.err == nil && n != extract.NumTags {
		d.err = fmt.Errorf("snapshot: decode %s: tag alphabet size %d, this build uses %d",
			SectionExtractor, n, extract.NumTags)
	}
	nfeats := d.count("feature")
	st.Weights = make(map[string][extract.NumTags]float64, nfeats)
	feat := ""
	for i := 0; i < nfeats && d.err == nil; i++ {
		feat = d.key(feat, i == 0)
		var w [extract.NumTags]float64
		for t := 0; t < extract.NumTags; t++ {
			w[t] = d.f64()
		}
		st.Weights[feat] = w
	}
	for i := 0; i < extract.NumTags; i++ {
		for j := 0; j < extract.NumTags; j++ {
			st.Trans[i][j] = d.f64()
		}
	}
	return st, d.finish()
}
