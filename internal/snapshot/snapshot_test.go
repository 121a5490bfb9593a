package snapshot_test

// Round-trip determinism and corruption handling of the snapshot layer.
//
// The contract under test is the tentpole guarantee: build → save → load
// must yield a database whose Query, TopKThreshold and Interpret answers
// are byte-identical (exact float bits) to the freshly built one, under
// concurrent readers, and every way a file can be unusable — truncation,
// bit rot, wrong version, wrong magic, missing file — must surface as a
// typed error, never a panic.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/harness"
	"repro/internal/relstore"
	"repro/internal/snapshot"
)

// Shared fixture: one small hotel corpus + built DB + saved snapshot.
var (
	fixOnce   sync.Once
	fixData   *corpus.Dataset
	fixDB     *core.DB
	fixBytes  []byte
	fixErr    error
	fixErrCtx string
)

func fixtures(t *testing.T) (*corpus.Dataset, *core.DB, []byte) {
	t.Helper()
	fixOnce.Do(func() {
		genCfg := corpus.SmallConfig()
		fixData = corpus.GenerateHotels(genCfg)
		cfg := core.DefaultConfig()
		cfg.MarkersPerAttr = 6
		fixDB, fixErr = harness.BuildDB(fixData, cfg, 400, 300)
		if fixErr != nil {
			fixErrCtx = "build"
			return
		}
		dir, err := os.MkdirTemp("", "snapshot-fixture-*")
		if err != nil {
			fixErr, fixErrCtx = err, "tempdir"
			return
		}
		defer os.RemoveAll(dir)
		path := filepath.Join(dir, "fixture.snap")
		if _, fixErr = snapshot.Save(path, fixDB); fixErr != nil {
			fixErrCtx = "save"
			return
		}
		fixBytes, fixErr = os.ReadFile(path)
		if fixErr != nil {
			fixErrCtx = "read"
		}
	})
	if fixErr != nil {
		t.Fatalf("fixture %s: %v", fixErrCtx, fixErr)
	}
	return fixData, fixDB, fixBytes
}

// writeSnap materializes raw snapshot bytes as a file for Load.
func writeSnap(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "db.snap")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// loadFixture loads the fixture snapshot from a fresh file.
func loadFixture(t *testing.T) (*core.DB, *snapshot.Meta) {
	t.Helper()
	_, _, raw := fixtures(t)
	db, meta, err := snapshot.Load(writeSnap(t, raw))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	return db, meta
}

// TestRoundTripEquivalence is the tentpole acceptance check: the loaded
// database answers the full harness query set — every bank predicate's
// interpretation, ranked query and TA top-k — byte-identically to the
// built one.
func TestRoundTripEquivalence(t *testing.T) {
	d, built, _ := fixtures(t)
	loaded, _ := loadFixture(t)
	builtFP, n := harness.QueryFingerprint(d, built)
	loadedFP, _ := harness.QueryFingerprint(d, loaded)
	if n == 0 {
		t.Fatal("query fingerprint covered nothing")
	}
	if builtFP != loadedFP {
		t.Fatalf("loaded DB diverges from built DB over %d query-set entries:\n%s",
			n, firstDiff(builtFP, loadedFP))
	}
	t.Logf("loaded DB byte-identical to built DB over %d query-set entries", n)
}

// TestRoundTripMeta checks the stored metadata round-trips and the load
// path reports its own timing and layout.
func TestRoundTripMeta(t *testing.T) {
	d, built, _ := fixtures(t)
	_, meta := loadFixture(t)
	if meta.FormatVersion != snapshot.FormatVersion {
		t.Errorf("format version %d, want %d", meta.FormatVersion, snapshot.FormatVersion)
	}
	if meta.Name != "hotel" {
		t.Errorf("name %q, want hotel", meta.Name)
	}
	if meta.BuildSeed != built.Config().Seed {
		t.Errorf("build seed %d, want %d", meta.BuildSeed, built.Config().Seed)
	}
	if meta.Entities != len(d.Entities) || meta.Reviews != len(d.Reviews) {
		t.Errorf("corpus size %d/%d, want %d/%d", meta.Entities, meta.Reviews, len(d.Entities), len(d.Reviews))
	}
	if meta.Extractions != built.ExtractionCount() {
		t.Errorf("extractions %d, want %d", meta.Extractions, built.ExtractionCount())
	}
	if meta.LoadDuration <= 0 {
		t.Error("load duration not recorded")
	}
	want := map[string]bool{
		snapshot.SectionMeta: true, snapshot.SectionRel: true, snapshot.SectionCore: true,
		snapshot.SectionEmbedding: true, snapshot.SectionReviewIndex: true,
		snapshot.SectionEntityIndex: true, snapshot.SectionExtractor: true,
	}
	for _, s := range meta.Sections {
		if !want[s.Name] {
			t.Errorf("unexpected section %q", s.Name)
		}
		delete(want, s.Name)
	}
	for name := range want {
		t.Errorf("missing section %q", name)
	}
}

// TestLoadedConcurrentReads drives the loaded database from many
// goroutines under the race detector: the reconstructed caches must
// uphold core's unlimited-concurrent-readers contract, and every
// goroutine must see the same answers.
func TestLoadedConcurrentReads(t *testing.T) {
	d, _, _ := fixtures(t)
	loaded, _ := loadFixture(t)
	preds := make([]string, 0, 8)
	for _, p := range d.Predicates {
		if p.Kind == corpus.KindMarker || p.Kind == corpus.KindParaphrase {
			preds = append(preds, p.Text)
			if len(preds) == 8 {
				break
			}
		}
	}
	if len(preds) < 2 {
		t.Skip("predicate bank too small")
	}
	opts := core.DefaultQueryOptions()
	sequential := make([]string, len(preds))
	for i, p := range preds {
		res, err := loaded.RankPredicates([]string{p}, nil, opts)
		if err != nil {
			t.Fatalf("sequential %q: %v", p, err)
		}
		sequential[i] = renderRows(res)
	}
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < len(preds)*3; i++ {
				pi := (g + i) % len(preds)
				res, err := loaded.RankPredicates([]string{preds[pi]}, nil, opts)
				if err != nil {
					errs <- err
					return
				}
				if got := renderRows(res); got != sequential[pi] {
					errs <- errors.New("concurrent result diverged from sequential: " + preds[pi])
					return
				}
				if _, _, err := loaded.TopKThreshold(preds[pi:pi+1], 5); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func renderRows(res *core.QueryResult) string {
	out := ""
	for _, r := range res.Rows {
		out += r.EntityID + "," // scores compared via fingerprint test
	}
	return out
}

// parseLayout walks the documented container layout (magic, version,
// count, section table, payloads) independently of the package's own
// parser, returning section name → (payload, crc). It doubles as a
// format-layout regression test: if the writer's layout drifts from the
// documented one, this parser breaks.
func parseLayout(t *testing.T, data []byte) map[string]struct {
	payload []byte
	crc     uint32
} {
	t.Helper()
	if string(data[:8]) != snapshot.Magic {
		t.Fatalf("magic %q", data[:8])
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != snapshot.FormatVersion {
		t.Fatalf("version %d", v)
	}
	count := int(binary.LittleEndian.Uint32(data[12:]))
	off := 16
	type entry struct {
		name string
		size int
		crc  uint32
	}
	var entries []entry
	for i := 0; i < count; i++ {
		nameLen := int(binary.LittleEndian.Uint16(data[off:]))
		name := string(data[off+2 : off+2+nameLen])
		size := int(binary.LittleEndian.Uint64(data[off+2+nameLen:]))
		crc := binary.LittleEndian.Uint32(data[off+10+nameLen:])
		off += 14 + nameLen
		entries = append(entries, entry{name: name, size: size, crc: crc})
	}
	out := map[string]struct {
		payload []byte
		crc     uint32
	}{}
	for _, e := range entries {
		out[e.name] = struct {
			payload []byte
			crc     uint32
		}{payload: data[off : off+e.size], crc: e.crc}
		off += e.size
	}
	if off != len(data) {
		t.Fatalf("layout accounts for %d of %d bytes", off, len(data))
	}
	return out
}

// TestArtifactByteStability: two saves of the same built DB, and a save
// of the DB loaded from the first, produce byte-identical payloads for
// every section except meta (which carries the creation timestamp), so
// operators can hash artifacts to confirm replicas serve the same build,
// and save → load → save reproduces the file.
func TestArtifactByteStability(t *testing.T) {
	_, _, raw := fixtures(t)
	_, db, _ := fixtures(t)
	loaded, _ := loadFixture(t)
	for what, sdb := range map[string]*core.DB{"built": db, "loaded": loaded} {
		path := filepath.Join(t.TempDir(), "again.snap")
		if _, err := snapshot.Save(path, sdb); err != nil {
			t.Fatal(err)
		}
		raw2, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		a, b := parseLayout(t, raw), parseLayout(t, raw2)
		if len(a) != len(b) {
			t.Fatalf("%s: section counts differ: %d vs %d", what, len(a), len(b))
		}
		for name, sa := range a {
			sb, ok := b[name]
			if !ok {
				t.Fatalf("%s: second save lacks section %q", what, name)
			}
			if name == snapshot.SectionMeta {
				continue // creation timestamp varies
			}
			if sa.crc != sb.crc || !bytes.Equal(sa.payload, sb.payload) {
				t.Errorf("%s: section %q is not byte-stable across saves", what, name)
			}
		}
	}
}

// TestCorruptionTruncated: every truncation point must produce a typed
// error (ErrTruncated, or ErrBadMagic when even the magic is cut), and
// never a panic or a silently wrong database.
func TestCorruptionTruncated(t *testing.T) {
	_, _, raw := fixtures(t)
	for _, n := range []int{0, 3, 7, 8, 11, 15, 40, len(raw) / 2, len(raw) - 1} {
		if n >= len(raw) {
			continue
		}
		_, _, err := snapshot.Load(writeSnap(t, raw[:n]))
		if err == nil {
			t.Fatalf("truncation to %d bytes loaded successfully", n)
		}
		if !errors.Is(err, snapshot.ErrTruncated) && !errors.Is(err, snapshot.ErrBadMagic) {
			t.Errorf("truncation to %d bytes: got %v, want ErrTruncated/ErrBadMagic", n, err)
		}
	}
}

// TestCorruptionChecksum: a flipped payload bit fails the section CRC.
func TestCorruptionChecksum(t *testing.T) {
	_, _, raw := fixtures(t)
	bad := append([]byte(nil), raw...)
	bad[len(bad)-1] ^= 0x40 // last payload byte
	_, _, err := snapshot.Load(writeSnap(t, bad))
	if !errors.Is(err, snapshot.ErrChecksum) {
		t.Fatalf("got %v, want ErrChecksum", err)
	}
	bad = append([]byte(nil), raw...)
	bad[len(raw)/2] ^= 0x01 // a middle payload byte
	if _, _, err := snapshot.Load(writeSnap(t, bad)); !errors.Is(err, snapshot.ErrChecksum) {
		t.Fatalf("middle flip: got %v, want ErrChecksum", err)
	}
}

// TestCorruptionVersion: a future format version, and the previous one
// (whose artifacts must be rebuilt), are refused up front.
func TestCorruptionVersion(t *testing.T) {
	_, _, raw := fixtures(t)
	for _, v := range []uint32{snapshot.FormatVersion - 1, 99} {
		bad := append([]byte(nil), raw...)
		binary.LittleEndian.PutUint32(bad[len(snapshot.Magic):], v)
		_, _, err := snapshot.Load(writeSnap(t, bad))
		if !errors.Is(err, snapshot.ErrVersion) {
			t.Fatalf("version %d: got %v, want ErrVersion", v, err)
		}
	}
}

// TestCorruptionMagic: a non-snapshot file is identified as such.
func TestCorruptionMagic(t *testing.T) {
	_, _, raw := fixtures(t)
	bad := append([]byte(nil), raw...)
	bad[0] = 'X'
	if _, _, err := snapshot.Load(writeSnap(t, bad)); !errors.Is(err, snapshot.ErrBadMagic) {
		t.Fatalf("got %v, want ErrBadMagic", err)
	}
	if _, _, err := snapshot.Load(writeSnap(t, []byte("definitely not a snapshot file"))); !errors.Is(err, snapshot.ErrBadMagic) {
		t.Fatalf("text file: got %v, want ErrBadMagic", err)
	}
}

// TestCorruptionTrailing: trailing garbage after the declared sections is
// rejected with the typed error rather than ignored.
func TestCorruptionTrailing(t *testing.T) {
	_, _, raw := fixtures(t)
	bad := append(append([]byte(nil), raw...), "extra"...)
	if _, _, err := snapshot.Load(writeSnap(t, bad)); !errors.Is(err, snapshot.ErrTrailingData) {
		t.Fatalf("got %v, want ErrTrailingData", err)
	}
}

// TestRandomMutationsReturnTypedErrors: single-byte mutations of a valid
// snapshot at 300 seeded-random positions must every one surface as a
// typed snapshot error — never a panic, never a silently loaded database.
// (FuzzSnapshotLoad explores arbitrary inputs; this pins the specific
// random-bit-rot contract deterministically in the regular suite.)
func TestRandomMutationsReturnTypedErrors(t *testing.T) {
	_, _, raw := fixtures(t)
	rng := rand.New(rand.NewSource(42))
	typed := []error{
		snapshot.ErrBadMagic, snapshot.ErrVersion, snapshot.ErrTruncated,
		snapshot.ErrChecksum, snapshot.ErrMissingSection, snapshot.ErrTrailingData,
	}
	bad := append([]byte(nil), raw...)
	for trial := 0; trial < 300; trial++ {
		pos := rng.Intn(len(bad))
		old := bad[pos]
		flip := byte(1 + rng.Intn(255))
		bad[pos] = old ^ flip
		_, _, err := snapshot.Load(writeSnap(t, bad))
		bad[pos] = old // restore for the next independent trial
		if err == nil {
			t.Fatalf("mutation at offset %d (^%02x) loaded successfully", pos, flip)
		}
		isTyped := false
		for _, want := range typed {
			if errors.Is(err, want) {
				isTyped = true
				break
			}
		}
		if !isTyped {
			t.Fatalf("mutation at offset %d (^%02x): untyped error %v", pos, flip, err)
		}
	}
}

// relPayloadSHA256 is the SHA-256 of the fixture's rel section payload,
// computed when the section still came from the multi-table store; the
// single-table encoder must write the same bytes.
const relPayloadSHA256 = "c7b9914d5102349c7772d4aaba6401c5157c831124536e9d080c8ed373a10edb"

// TestRelPayloadPinned: the rel section's bytes for the fixture build do
// not move.
func TestRelPayloadPinned(t *testing.T) {
	_, _, raw := fixtures(t)
	sum := sha256.Sum256(parseLayout(t, raw)[snapshot.SectionRel].payload)
	if got := hex.EncodeToString(sum[:]); got != relPayloadSHA256 {
		t.Fatalf("rel payload SHA-256 %s, want %s", got, relPayloadSHA256)
	}
}

// relTable is one table of a hand-built rel section payload.
type relTable struct {
	name, key string
	cols      []relstore.Column
	rows      []relstore.Row
}

// encodeRelPayload writes tables in the rel section's layout: a table
// count, then per table its name, key, columns (name, type) and rows. A
// value is a presence byte followed by the value encoded by its own Go
// type, so a test can put a value in a column of another type.
func encodeRelPayload(tables ...relTable) []byte {
	str := func(b []byte, s string) []byte { return append(binary.AppendUvarint(b, uint64(len(s))), s...) }
	b := binary.AppendUvarint(nil, uint64(len(tables)))
	for _, tb := range tables {
		b = str(str(b, tb.name), tb.key)
		b = binary.AppendUvarint(b, uint64(len(tb.cols)))
		for _, c := range tb.cols {
			b = binary.AppendUvarint(str(b, c.Name), uint64(c.Type))
		}
		b = binary.AppendUvarint(b, uint64(len(tb.rows)))
		for _, row := range tb.rows {
			for _, v := range row {
				if v == nil {
					b = append(b, 0)
					continue
				}
				b = append(b, 1)
				switch x := v.(type) {
				case string:
					b = str(b, x)
				case int64:
					b = binary.AppendVarint(b, x)
				case float64:
					b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
				case bool:
					if x {
						b = append(b, 1)
					} else {
						b = append(b, 0)
					}
				}
			}
		}
	}
	return b
}

// withSection returns the snapshot data with the named section's payload
// replaced and its table entry (size, CRC) rewritten to match.
func withSection(data []byte, name string, payload []byte) []byte {
	count := int(binary.LittleEndian.Uint32(data[12:]))
	names, sizes := make([]string, count), make([]int, count)
	off := 16
	for i := range names {
		n := int(binary.LittleEndian.Uint16(data[off:]))
		names[i] = string(data[off+2 : off+2+n])
		sizes[i] = int(binary.LittleEndian.Uint64(data[off+2+n:]))
		off += 14 + n
	}
	out := append([]byte(nil), data[:16]...)
	var body []byte
	for i, n := range names {
		p := data[off : off+sizes[i]]
		off += sizes[i]
		if n == name {
			p = payload
		}
		out = binary.LittleEndian.AppendUint16(out, uint16(len(n)))
		out = append(out, n...)
		out = binary.LittleEndian.AppendUint64(out, uint64(len(p)))
		out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(p))
		body = append(body, p...)
	}
	return append(out, body...)
}

// TestRelSectionAcceptsOnlyWhatTheWriterProduces: the rel section must
// hold exactly one table, Entities keyed by id, with well-typed rows in
// ascending unique id order. Every other payload — each with a valid CRC,
// so it reaches the decoder — fails Load with an error naming the
// section, never a panic.
func TestRelSectionAcceptsOnlyWhatTheWriterProduces(t *testing.T) {
	_, db, raw := fixtures(t)
	schema := db.Rel.Schema()
	base := relTable{name: schema.Name, key: schema.Key, cols: schema.Columns}
	for i := 0; i < db.Rel.Len(); i++ {
		base.rows = append(base.rows, db.Rel.Row(i))
	}
	if got := encodeRelPayload(base); !bytes.Equal(got, parseLayout(t, raw)[snapshot.SectionRel].payload) {
		t.Fatal("the hand-built payload differs from the writer's; the layout has drifted")
	}
	if _, _, err := snapshot.Load(writeSnap(t, withSection(raw, snapshot.SectionRel, encodeRelPayload(base)))); err != nil {
		t.Fatalf("the rewritten container no longer loads: %v", err)
	}
	price := -1
	for i, c := range schema.Columns {
		if c.Name == "price_pn" {
			price = i
		}
	}
	// edit returns a copy of base changed by fn; rows are copied on write.
	edit := func(fn func(tb *relTable)) relTable {
		tb := base
		tb.cols = append([]relstore.Column(nil), base.cols...)
		tb.rows = append([]relstore.Row(nil), base.rows...)
		fn(&tb)
		return tb
	}
	setRow := func(tb *relTable, i int, fn func(relstore.Row)) {
		r := append(relstore.Row(nil), tb.rows[i]...)
		fn(r)
		tb.rows[i] = r
	}
	cases := map[string][]byte{
		"two tables":   encodeRelPayload(base, base),
		"no tables":    encodeRelPayload(),
		"wrong name":   encodeRelPayload(edit(func(tb *relTable) { tb.name = "Hotels" })),
		"wrong key":    encodeRelPayload(edit(func(tb *relTable) { tb.key = "name" })),
		"short row":    encodeRelPayload(edit(func(tb *relTable) { tb.rows[1] = tb.rows[1][:len(tb.rows[1])-1] })),
		"long row":     encodeRelPayload(edit(func(tb *relTable) { tb.rows[1] = append(tb.rows[1][:len(tb.rows[1]):len(tb.rows[1])], 1.0) })),
		"string price": encodeRelPayload(edit(func(tb *relTable) { setRow(tb, 1, func(r relstore.Row) { r[price] = "cheap" }) })),
		"unknown type": encodeRelPayload(edit(func(tb *relTable) { tb.cols[price].Type = relstore.TBool + 5 })),
		"unknown type, no rows": encodeRelPayload(edit(func(tb *relTable) {
			tb.cols[price].Type = relstore.TBool + 5
			tb.rows = nil
		})),
		"int ids": encodeRelPayload(edit(func(tb *relTable) {
			tb.cols[0].Type = relstore.TInt
			for i := range tb.rows {
				setRow(tb, i, func(r relstore.Row) { r[0] = int64(i) })
			}
		})),
		"NULL id":       encodeRelPayload(edit(func(tb *relTable) { setRow(tb, 0, func(r relstore.Row) { r[0] = nil }) })),
		"duplicate id":  encodeRelPayload(edit(func(tb *relTable) { tb.rows[2] = tb.rows[1] })),
		"unsorted ids":  encodeRelPayload(edit(func(tb *relTable) { tb.rows[1], tb.rows[2] = tb.rows[2], tb.rows[1] })),
		"trailing byte": append(encodeRelPayload(base), 0),
	}
	for name, payload := range cases {
		db, _, err := snapshot.Load(writeSnap(t, withSection(raw, snapshot.SectionRel, payload)))
		switch {
		case err == nil:
			t.Errorf("%s: loaded a database of %d entities", name, len(db.EntityIDs()))
		case !strings.Contains(err.Error(), "snapshot: rel: ") && !strings.Contains(err.Error(), "snapshot: decode rel: "):
			t.Errorf("%s: error %q does not name the %s section", name, err, snapshot.SectionRel)
		}
	}
}

// nonCanonicalImages are seed-11 (a one-entity image the writer wrote)
// with one section rewritten, behind a valid CRC, into bytes that decode
// to the same values but that the writer never produces. Each is also
// checked in as the FuzzSnapshotLoad seed named here.
func nonCanonicalImages(t *testing.T) []struct {
	seed, section string
	image         []byte
} {
	t.Helper()
	base := snapshot.ReadSeed(t, filepath.Join("testdata", "fuzz", "FuzzSnapshotLoad", "seed-11"))
	layout := parseLayout(t, base)
	rewrite := func(section, from, to string) []byte {
		p := layout[section].payload
		i := bytes.Index(p, []byte(from))
		if i < 0 {
			t.Fatalf("%s payload does not hold %q", section, from)
		}
		return withSection(base, section, append(append(append([]byte(nil), p[:i]...), to...), p[i+len(from):]...))
	}
	return []struct {
		seed, section string
		image         []byte
	}{
		// DocIDs [r1], DocLen [2], then TotalLen 2 (zigzag 0x04) written
		// as the two-byte 0x84 0x00.
		{"seed-12", snapshot.SectionReviewIndex, rewrite(snapshot.SectionReviewIndex, "\x01\x02r1\x01\x04\x04", "\x01\x02r1\x01\x04\x84\x00")},
		// The one DomainPhrases entry, "room clean" → 1, written twice.
		{"seed-13", snapshot.SectionCore, rewrite(snapshot.SectionCore, "\x01\x0aroom clean\x02", "\x02\x0aroom clean\x02\x0aroom clean\x02")},
		// DF {clean: 1, room: 1} (the first such map; TermCount repeats it)
		// with its two keys swapped.
		{"seed-14", snapshot.SectionEmbedding, rewrite(snapshot.SectionEmbedding, "\x02\x05clean\x02\x04room\x02", "\x02\x04room\x02\x05clean\x02")},
	}
}

// TestLoadRefusesNonCanonicalEncodings: an overlong varint, a repeated
// map key and an unsorted map key each fail Load with the malformed-
// payload error of their section, and the checked-in seed of the same
// name holds exactly that image.
func TestLoadRefusesNonCanonicalEncodings(t *testing.T) {
	for _, c := range nonCanonicalImages(t) {
		_, _, err := snapshot.Load(writeSnap(t, c.image))
		if want := "snapshot: decode " + c.section + ": malformed"; err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: got %v, want %q", c.seed, err, want)
		}
		if seed := snapshot.ReadSeed(t, filepath.Join("testdata", "fuzz", "FuzzSnapshotLoad", c.seed)); !bytes.Equal(seed, c.image) {
			t.Errorf("checked-in %s is not the crafted image", c.seed)
		}
	}
}

// TestMissingFile: a nonexistent path surfaces fs.ErrNotExist, so a
// refusal says the file is missing rather than corrupt.
func TestMissingFile(t *testing.T) {
	_, _, err := snapshot.Load(filepath.Join(t.TempDir(), "nope.snap"))
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("got %v, want fs.ErrNotExist", err)
	}
}

// TestLoadRefusesBadProvenance: a CRC-valid snapshot whose marker
// summary cites an extraction that does not exist, or one of another
// entity, attribute or marker, is refused at load with an error naming the
// summary — not loaded and left to panic or mislead in /evidence.
func TestLoadRefusesBadProvenance(t *testing.T) {
	db, _ := loadFixture(t)
	attr, entity, marker := "", "", -1
	for _, a := range db.Attrs {
		for _, id := range db.EntityIDs() {
			if s := db.Summary(a.Name, id); s != nil {
				for m, ids := range s.Provenance {
					if len(ids) > 0 && marker < 0 {
						attr, entity, marker = a.Name, id, m
					}
				}
			}
		}
	}
	if marker < 0 {
		t.Fatal("fixture has no provenance")
	}
	foreign := -1 // an extraction of another entity
	for _, ext := range db.State().Extractions {
		if ext.EntityID != entity {
			foreign = ext.ID
			break
		}
	}
	for name, id := range map[string]int{"out of range": 1 << 30, "foreign extraction": foreign} {
		loaded, _ := loadFixture(t)
		loaded.Summary(attr, entity).Provenance[marker][0] = id
		path := filepath.Join(t.TempDir(), "bad.snap")
		if _, err := snapshot.Save(path, loaded); err != nil {
			t.Fatalf("%s: save: %v", name, err)
		}
		_, _, err := snapshot.Load(path)
		if err == nil {
			t.Fatalf("%s: a summary citing extraction %d loaded", name, id)
		}
		if msg := err.Error(); !strings.Contains(msg, snapshot.SectionCore+":") || !strings.Contains(msg, attr+"/"+entity) {
			t.Errorf("%s: error %q does not name the core section and summary %s/%s", name, msg, attr, entity)
		}
	}
}

// firstDiff returns the first differing line of two multi-line strings.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  built:  %s\n  loaded: %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("length mismatch: %d vs %d lines", len(al), len(bl))
}
