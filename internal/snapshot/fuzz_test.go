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
// versions. A database Load does accept must answer /evidence — resolve
// the provenance of every summary it holds — without a panic.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/relstore"
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
			for _, a := range db.Attrs {
				for _, id := range db.EntityIDs() {
					for m := range a.Markers {
						db.ProvenanceOf(a.Name, id, m) // must not panic
					}
				}
			}
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
		v, ok := headerVersion([]byte(data))
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
