package snapshot

// FuzzSnapshotLoad: feeding Load arbitrary bytes — truncations, bit
// flips, forged headers, garbage payloads behind valid CRCs — must yield
// an error, never a panic or a half-built database. White-box (package
// snapshot) so the seeds can be built with writeContainer, giving the
// fuzzer structurally valid containers whose payloads it can mutate
// behind recomputed... no: mutated payloads fail CRC, so the interesting
// seeds below carry VALID CRCs over adversarial payloads, driving the
// section decoders directly. testdata/fuzz/FuzzSnapshotLoad holds
// additional checked-in seeds; every header in them carries FormatVersion
// (TestCheckedInSeedsAtFormatVersion) so they reach the decoders, except
// seed-v2, seed-v3 and seed-v4, which pin the refusal of earlier format
// versions. Load accepts only the writer's image: a database it does
// accept must re-save byte-identically in every section but meta (whose
// timestamp moves), then answer /evidence — every summary with its
// provenance — and one query per served entity without a panic. seed-11
// is such an image (tinyImage), so the property runs on every test run,
// not only when the fuzzer stumbles on a valid checksum.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/embedding"
	"repro/internal/extract"
	"repro/internal/ir"
	"repro/internal/relstore"
	"repro/internal/textproc"
)

// opinionCountBomb is a container whose meta and rel sections decode and
// whose core section declares one document per count, each followed by a
// few bytes: the opinion counts must be bounded by the bytes left before
// they become offsets or an allocation.
func opinionCountBomb(counts ...uint64) []byte {
	meta, err := encodeSection(SectionMeta, metaPayload{})
	if err != nil {
		panic(err)
	}
	rel, err := relstore.NewTable(relstore.Schema{
		Name:    relstore.EntitiesName,
		Key:     relstore.EntityKey,
		Columns: []relstore.Column{{Name: relstore.EntityKey, Type: relstore.TString}},
	}, nil)
	if err != nil {
		panic(err)
	}
	e := &enc{}
	e.str("bomb")
	e.config(core.Config{})
	e.uvarint(0) // attributes
	e.uvarint(0) // summary attributes
	e.uvarint(uint64(len(counts)))
	for _, n := range counts {
		e.uvarint(n)
	}
	e.b = append(e.b, make([]byte, 16)...)
	return containerBytes([]Section{meta, {Name: SectionRel, Payload: encodeRel(rel)}, {Name: SectionCore, Payload: e.b}})
}

// TestLoadBoundsCoreOpinionCounts: a CRC-valid core section whose
// per-document opinion counts exceed its bytes — past int32, near it, or
// wrapping the running total — is refused with an error naming the
// section, never a panic or a multi-GiB allocation.
func TestLoadBoundsCoreOpinionCounts(t *testing.T) {
	for _, counts := range [][]uint64{
		{0xFFFFFFFF},
		{math.MaxInt32},
		{1<<32 | 1},
		{1, math.MaxUint64},
		{17},
	} {
		path := filepath.Join(t.TempDir(), "bomb.snap")
		if err := os.WriteFile(path, opinionCountBomb(counts...), 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := Load(path)
		if err == nil || !strings.Contains(err.Error(), "decode "+SectionCore+": malformed opinion count") {
			t.Errorf("counts %v: got %v, want a malformed opinion count in %s", counts, err, SectionCore)
		}
	}
}

// tinyDB is a one-entity, one-review, one-attribute database assembled
// through FromState: one of every piece of state, small enough that its
// image is a checked-in seed (seed-11).
func tinyDB() *core.DB {
	rel, err := relstore.NewTable(relstore.Schema{
		Name:    relstore.EntitiesName,
		Key:     relstore.EntityKey,
		Columns: []relstore.Column{{Name: relstore.EntityKey, Type: relstore.TString}},
	}, []relstore.Row{{"e1"}})
	if err != nil {
		panic(err)
	}
	words := map[string]int{"clean": 1, "room": 1}
	embed, err := embedding.NewModelFromState(embedding.ModelState{
		Dim:   2,
		Vecs:  map[string]embedding.Vector{"clean": {1, 0.5}, "room": {0.25, 1}},
		Stats: textproc.CorpusStatsState{DocCount: 1, DF: words, TermCount: words, Total: 2},
	})
	if err != nil {
		panic(err)
	}
	reviews, entities := ir.NewIndex(), ir.NewIndex()
	reviews.Add("r1", []string{"room", "clean"})
	entities.Add("e1", []string{"room", "clean"})
	db, err := core.FromState(&core.DBState{
		Name: "tiny",
		Cfg:  core.DefaultConfig(),
		Attrs: []core.AttributeState{{
			Name: "cleanliness",
			Markers: []core.Marker{
				{Name: "clean", Sentiment: 0.5, Centroid: embedding.Vector{1, 0.5}},
				{Name: "dirty", Sentiment: -0.5, Centroid: embedding.Vector{0, 1}},
			},
			DomainPhrases: map[string]int{"room clean": 1},
			PhraseMarker:  map[string]int{"room clean": 0},
		}},
		Summaries: map[string]map[string]*core.MarkerSummary{"cleanliness": {"e1": {
			Counts: []float64{1, 0}, SentSum: []float64{0.5, 0},
			VecSum: []embedding.Vector{{1.25, 1.5}, {0, 0}}, Total: 1, Provenance: [][]int{{0}, nil},
		}}},
		Extractions:        []core.Extraction{{ID: 0, EntityID: "e1", Reviewer: "v", Day: 1, Aspect: "room", Phrase: "room clean", Sentiment: 0.5}},
		OpStart:            []int32{0, 1},
		Ops:                []core.ReviewOpinion{{Attr: 0, Marker: 0}},
		ReviewSentiments:   map[string]float64{"r1": 0.5},
		ReviewsPerReviewer: map[string]int{"v": 1},
	}, core.Components{
		Rel: rel, Embed: embed, ReviewIndex: reviews, EntityIndex: entities,
		Tagger: extract.NewPerceptronFromState(extract.PerceptronState{}),
	})
	if err != nil {
		panic(err)
	}
	return db
}

// tinyImage is tinyDB as Write writes it.
func tinyImage() []byte {
	var buf bytes.Buffer
	if _, err := Write(&buf, tinyDB()); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// widePosting is tinyImage with the named index section replaced by one
// term whose single posting carries doc and tf as written, past int32 or
// not.
func widePosting(section string, doc, tf int64) []byte {
	secs, err := parseContainer(tinyImage())
	if err != nil {
		panic(err)
	}
	e := &enc{}
	e.strs([]string{"d1"})
	e.ints([]int{2})
	e.varint(2)
	e.uvarint(1)
	e.str("room")
	e.uvarint(1)
	e.varint(doc)
	e.varint(tf)
	for i := range secs {
		if secs[i].Name == section {
			secs[i].Payload = e.b
		}
	}
	return containerBytes(secs)
}

// TestLoadRefusesWidePostings: an index posting whose doc or tf does not
// fit the in-memory int32 is refused as a malformed posting of its own
// section, never truncated; one that fits decodes.
func TestLoadRefusesWidePostings(t *testing.T) {
	for _, section := range []string{SectionReviewIndex, SectionEntityIndex} {
		for _, p := range []struct{ doc, tf int64 }{
			{math.MaxInt32 + 1, 1},
			{0, math.MaxInt32 + 1},
			{math.MinInt32 - 1, 1},
			{0, math.MinInt32 - 1},
			{1 << 32, 1 << 32},
		} {
			_, _, err := Load(writeSeed(t, widePosting(section, p.doc, p.tf)))
			if want := "decode " + section + ": malformed posting"; err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s doc %d tf %d: got %v, want %q", section, p.doc, p.tf, err, want)
			}
		}
		if _, _, err := Load(writeSeed(t, widePosting(section, 0, math.MaxInt32))); err != nil && strings.Contains(err.Error(), "malformed posting") {
			t.Errorf("%s: a posting that fits int32 was refused: %v", section, err)
		}
	}
}

// TestCheckedInPostingSeedsRefusedInTheirSection: seed-09 carries a
// review-index doc and seed-10 an entity-index tf past int32; each is
// refused in its own section. seed-11, tinyImage, loads.
func TestCheckedInPostingSeedsRefusedInTheirSection(t *testing.T) {
	for seed, want := range map[string]string{
		"seed-09": "decode " + SectionReviewIndex + ": malformed posting",
		"seed-10": "decode " + SectionEntityIndex + ": malformed posting",
		"seed-11": "",
	} {
		data := readSeed(t, filepath.Join("testdata", "fuzz", "FuzzSnapshotLoad", seed))
		_, _, err := Load(writeSeed(t, data))
		if want == "" && err != nil || want != "" && (err == nil || !strings.Contains(err.Error(), want)) {
			t.Errorf("%s: got %v, want %q", seed, err, want)
		}
	}
}

// writeSeed materializes snapshot bytes as a file for Load.
func writeSeed(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "seed.snap")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// checkCanonical re-saves a database Load accepted from data and
// requires every section but meta to come out byte-identical: Load
// accepts only what the writer writes.
func checkCanonical(data []byte, db *core.DB, meta *Meta) error {
	var buf bytes.Buffer
	if _, err := WriteShard(&buf, db, meta.Shard); err != nil {
		return fmt.Errorf("re-save: %w", err)
	}
	in, err := parseContainer(data)
	if err != nil {
		return err
	}
	out, err := parseContainer(buf.Bytes())
	if err != nil {
		return err
	}
	payloads := func(secs []Section) map[string][]byte {
		m := map[string][]byte{}
		for _, s := range secs {
			if s.Name != SectionMeta {
				m[s.Name] = s.Payload
			}
		}
		return m
	}
	got, want := payloads(out), payloads(in)
	if len(got) != len(want) {
		return fmt.Errorf("re-save has %d sections besides meta, the input %d", len(got), len(want))
	}
	for name, p := range want {
		if !bytes.Equal(got[name], p) {
			return fmt.Errorf("section %s re-saves as %d different bytes, was %d", name, len(got[name]), len(p))
		}
	}
	return nil
}

// serveAll answers what /evidence reads for every served (entity,
// attribute) — the summary, each marker's average sentiment and its
// provenance — and one query per served entity, restricted to it.
func serveAll(db *core.DB) {
	for _, a := range db.Attrs {
		for _, id := range db.EntityIDs() {
			s := db.Summary(a.Name, id)
			if s == nil {
				continue
			}
			for m := range a.Markers {
				s.AvgSentiment(m)
				db.ProvenanceOf(a.Name, id, m)
			}
		}
	}
	for i, id := range db.EntityIDs() {
		pred := "clean room"
		if len(db.Attrs) > 0 {
			if a := db.Attrs[i%len(db.Attrs)]; len(a.Markers) > 0 {
				pred = a.Markers[i%len(a.Markers)].Name
			}
		}
		_, _ = db.RankPredicates([]string{pred}, func(e string) bool { return e == id }, core.DefaultQueryOptions())
	}
}

// containerBytes builds a syntactically valid container (header + CRCs)
// around the given sections.
func containerBytes(sections []Section) []byte {
	var buf bytes.Buffer
	if err := writeContainer(&buf, sections); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func FuzzSnapshotLoad(f *testing.F) {
	// Empty container.
	f.Add(containerBytes(nil))
	// All required sections present with short garbage payloads: every
	// CRC is valid, so the per-section decoders run on hostile input.
	garbage := [][]byte{{}, {0x01}, {0xff, 0xff, 0xff, 0xff, 0xff}, []byte("hello"), {0x96, 0x01, 0x00}}
	for _, g := range garbage {
		secs := make([]Section, 0, 7)
		for _, name := range []string{
			SectionMeta, SectionRel, SectionCore, SectionEmbedding,
			SectionReviewIndex, SectionEntityIndex, SectionExtractor,
		} {
			secs = append(secs, Section{Name: name, Payload: g})
		}
		f.Add(containerBytes(secs))
	}
	// Huge declared counts inside a CRC-valid payload (allocation bombs
	// the decoders must bound).
	bomb := binary.AppendUvarint(nil, 1<<60)
	f.Add(containerBytes([]Section{
		{Name: SectionMeta, Payload: bomb},
		{Name: SectionRel, Payload: bomb},
		{Name: SectionCore, Payload: bomb},
		{Name: SectionEmbedding, Payload: bomb},
		{Name: SectionReviewIndex, Payload: bomb},
		{Name: SectionEntityIndex, Payload: bomb},
		{Name: SectionExtractor, Payload: bomb},
		{Name: SectionShard, Payload: bomb},
	}))
	// Header-level adversaries.
	f.Add([]byte(Magic))
	f.Add(binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32([]byte(Magic), FormatVersion), 0xffffffff))
	f.Add([]byte("not a snapshot at all"))
	f.Add([]byte{})
	// Every required section plus one this version never writes (version
	// 3's "subindex"): refused with ErrUnknownSection before any decoding.
	f.Add(containerBytes([]Section{
		{Name: SectionMeta, Payload: bomb},
		{Name: SectionRel, Payload: bomb},
		{Name: SectionCore, Payload: bomb},
		{Name: SectionEmbedding, Payload: bomb},
		{Name: SectionReviewIndex, Payload: bomb},
		{Name: SectionEntityIndex, Payload: bomb},
		{Name: SectionExtractor, Payload: bomb},
		{Name: "subindex", Payload: bomb},
	}))
	// A core section whose opinion count exceeds int32 (checked in as
	// seed-08 too).
	f.Add(opinionCountBomb(0xFFFFFFFF))
	// An image Load accepts (seed-11), and index postings past int32
	// (seed-09, seed-10).
	f.Add(tinyImage())
	f.Add(widePosting(SectionReviewIndex, math.MaxInt32+1, 1))
	f.Add(widePosting(SectionEntityIndex, 0, math.MaxInt32+1))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.snap")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		db, meta, err := Load(path) // must not panic
		if err == nil && (db == nil || meta == nil) {
			t.Fatal("Load returned success without a database")
		}
		if err == nil {
			if cerr := checkCanonical(data, db, meta); cerr != nil {
				t.Fatalf("Load accepted an image the writer does not write: %v", cerr)
			}
			serveAll(db) // must not panic
		}
		if v, ok := headerVersion(data); ok && v != FormatVersion && !errors.Is(err, ErrVersion) {
			t.Fatalf("version %d header: got %v, want ErrVersion", v, err)
		}
		if secs, perr := parseContainer(data); perr == nil {
			for _, s := range secs {
				if !knownSection(s.Name) && !errors.Is(err, ErrUnknownSection) {
					t.Fatalf("section %q: got %v, want ErrUnknownSection", s.Name, err)
				}
			}
		}
	})
}

// headerVersion returns the format version of data when it starts with a
// complete snapshot header (magic, version, section count).
func headerVersion(data []byte) (uint32, bool) {
	if len(data) < len(Magic)+8 || string(data[:len(Magic)]) != Magic {
		return 0, false
	}
	return binary.LittleEndian.Uint32(data[len(Magic):]), true
}

// TestCheckedInSeedsAtFormatVersion: a checked-in seed whose header
// carries a stale version stops at the header check and never reaches the
// section decoders, so every seed must carry FormatVersion — except
// seed-vN, which must carry version N and is refused with ErrVersion.
func TestCheckedInSeedsAtFormatVersion(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzSnapshotLoad", "*"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no checked-in seeds (%v)", err)
	}
	for _, path := range paths {
		v, ok := headerVersion(readSeed(t, path))
		want := FormatVersion
		switch filepath.Base(path) {
		case "seed-v2":
			want = 2
		case "seed-v3":
			want = 3
		case "seed-v4":
			want = 4
		}
		if ok && v != want {
			t.Errorf("%s: header version %d, want %d", path, v, want)
		}
	}
}

// readSeed reads a checked-in one-value []byte seed file.
func readSeed(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	lit := strings.TrimSuffix(strings.TrimPrefix(lines[len(lines)-1], "[]byte("), ")")
	data, err := strconv.Unquote(lit)
	if len(lines) != 2 || err != nil {
		t.Fatalf("%s: not a one-value []byte seed file (%v)", path, err)
	}
	return []byte(data)
}
