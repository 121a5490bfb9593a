package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/embedding"
	"repro/internal/extract"
	"repro/internal/ir"
)

// Section names of format version 5. SectionShard is present only in
// per-shard snapshots written by a sharded build; every other section is
// required, and Load refuses any name not listed here (ErrUnknownSection).
const (
	SectionMeta        = "meta"
	SectionRel         = "rel"
	SectionCore        = "core"
	SectionEmbedding   = "embedding"
	SectionReviewIndex = "reviewindex"
	SectionEntityIndex = "entityindex"
	SectionExtractor   = "extractor"
	SectionShard       = "shard"
)

// knownSection reports whether name is a section this version writes.
func knownSection(name string) bool {
	switch name {
	case SectionMeta, SectionRel, SectionCore, SectionEmbedding, SectionReviewIndex,
		SectionEntityIndex, SectionExtractor, SectionShard:
		return true
	}
	return false
}

// ShardMeta identifies one shard of a horizontally partitioned build: its
// position in the fleet and the contiguous entity range it owns. It is
// stored as the snapshot's "shard" section so a serving process can verify
// it was handed the shard it was configured for.
type ShardMeta struct {
	// Index is this shard's position in [0, Count).
	Index int
	// Count is the fleet size the build was partitioned into.
	Count int
	// Entities is the number of entities this shard owns.
	Entities int
	// TotalEntities is the monolithic build's entity count.
	TotalEntities int
	// FirstEntity and LastEntity bound the shard's contiguous id range
	// (inclusive, over the sorted entity id space).
	FirstEntity string
	LastEntity  string
}

// metaPayload is the stored form of the metadata section.
type metaPayload struct {
	Name        string
	BuildSeed   int64
	Entities    int
	Reviews     int
	Extractions int
	Attributes  int
	CreatedUnix int64
}

// toMeta lifts the stored metadata into the public Meta; the single
// conversion point shared by Write and Load, so the two can never
// disagree about what a field means.
func (mp metaPayload) toMeta() *Meta {
	return &Meta{
		FormatVersion: FormatVersion,
		Name:          mp.Name,
		BuildSeed:     mp.BuildSeed,
		Entities:      mp.Entities,
		Reviews:       mp.Reviews,
		Extractions:   mp.Extractions,
		Attributes:    mp.Attributes,
		CreatedUnix:   mp.CreatedUnix,
	}
}

// SectionInfo describes one section of a loaded or written snapshot.
type SectionInfo struct {
	Name  string
	Bytes int
}

// Meta describes a snapshot: the stored build metadata plus, after Load,
// how the file was read. It backs the /healthz snapshot report.
type Meta struct {
	// FormatVersion is the container version of the file.
	FormatVersion uint32
	// Name is the database name ("hotel", "restaurant").
	Name string
	// BuildSeed is the Config.Seed the corpus was built with.
	BuildSeed int64
	// Entities, Reviews, Extractions, Attributes size the corpus.
	Entities    int
	Reviews     int
	Extractions int
	Attributes  int
	// CreatedUnix is when the snapshot was written (Unix seconds).
	CreatedUnix int64
	// SHA256 is the hex content digest of the whole artifact. Save fills
	// it from a hash computed while writing (io.MultiWriter — the file is
	// never re-read); Load fills it from the already-mapped bytes, so
	// digest-verified serving (LoadVerified) reads each snapshot exactly
	// once.
	SHA256 string
	// Shard identifies the entity partition this snapshot carries; nil for
	// a monolithic snapshot.
	Shard *ShardMeta
	// Sections lists the file's sections with payload sizes.
	Sections []SectionInfo
	// FileBytes is the total artifact size. Filled by Save and Load.
	FileBytes int64
	// LoadDuration is how long Load took. Filled by Load only.
	LoadDuration time.Duration
}

// encodeSection gobs v into a named section.
func encodeSection(name string, v interface{}) (Section, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return Section{}, fmt.Errorf("snapshot: encode %s: %w", name, err)
	}
	return Section{Name: name, Payload: buf.Bytes()}, nil
}

// decodeSection gobs a section payload into out.
func decodeSection(s Section, out interface{}) error {
	if err := gob.NewDecoder(bytes.NewReader(s.Payload)).Decode(out); err != nil {
		return fmt.Errorf("snapshot: decode %s: %w", s.Name, err)
	}
	return nil
}

// Write serializes a built database to w. The database must not be
// mutated (AddReview, RebuildSummaries, ...) until Write returns. It
// returns the written metadata, including the per-section layout
// (FileBytes is left zero; Save fills it from the artifact).
func Write(w io.Writer, db *core.DB) (*Meta, error) {
	return WriteShard(w, db, nil)
}

// WriteShard is Write plus shard identity: a non-nil shard is stored as
// the snapshot's "shard" section, marking the artifact as one partition
// of a sharded build.
func WriteShard(w io.Writer, db *core.DB, shard *ShardMeta) (*Meta, error) {
	if db == nil {
		return nil, fmt.Errorf("snapshot: nil database")
	}
	tagger, ok := db.Extractor.Tagger.(*extract.PerceptronTagger)
	if !ok {
		return nil, fmt.Errorf("snapshot: unsupported tagger %T (format %d serializes the perceptron tagger)",
			db.Extractor.Tagger, FormatVersion)
	}
	st := db.State()
	mp := metaPayload{
		Name:        db.Name,
		BuildSeed:   db.Config().Seed,
		Entities:    len(db.EntityIDs()),
		Reviews:     len(db.ReviewSentiments),
		Extractions: db.ExtractionCount(),
		Attributes:  len(db.Attrs),
		CreatedUnix: time.Now().Unix(),
	}
	metaSec, err := encodeSection(SectionMeta, mp)
	if err != nil {
		return nil, err
	}
	// Every section except the tiny gob-encoded meta uses the hand-rolled
	// codecs of codec.go (fast, byte-stable).
	sections := []Section{
		metaSec,
		{Name: SectionRel, Payload: encodeRel(db.Rel)},
		{Name: SectionCore, Payload: encodeCoreState(st)},
		{Name: SectionEmbedding, Payload: encodeEmbeddingState(db.Embed.State())},
		{Name: SectionReviewIndex, Payload: encodeIndexState(db.ReviewIndex.State())},
		{Name: SectionEntityIndex, Payload: encodeIndexState(db.EntityIndex.State())},
	}
	sections = append(sections, Section{Name: SectionExtractor, Payload: encodeExtractorState(tagger.State())})
	if shard != nil {
		shardSec, err := encodeSection(SectionShard, *shard)
		if err != nil {
			return nil, err
		}
		sections = append(sections, shardSec)
	}
	meta := mp.toMeta()
	if shard != nil {
		cp := *shard
		meta.Shard = &cp
	}
	for _, sec := range sections {
		meta.Sections = append(meta.Sections, SectionInfo{Name: sec.Name, Bytes: len(sec.Payload)})
	}
	if err := writeContainer(w, sections); err != nil {
		return nil, err
	}
	return meta, nil
}

// Save writes a snapshot atomically: to a uniquely named temp file in
// path's directory first, fsynced, then renamed over path, so neither a
// crashed build nor two builders racing on the same output path can
// leave a half-written artifact where a server might mmap it. It returns
// metadata describing the written file.
func Save(path string, db *core.DB) (*Meta, error) {
	return SaveShard(path, db, nil)
}

// SaveShard is Save plus shard identity (see WriteShard). The artifact's
// SHA-256 is computed while the bytes stream out (io.MultiWriter), so
// builders get the digest the shard manifest records without re-reading
// the file they just wrote.
func SaveShard(path string, db *core.DB, shard *ShardMeta) (*Meta, error) {
	f, err := os.CreateTemp(filepath.Dir(path), ".opinedb-snap-*")
	if err != nil {
		return nil, fmt.Errorf("snapshot: save: %w", err)
	}
	tmp := f.Name()
	h := sha256.New()
	meta, err := WriteShard(io.MultiWriter(f, h), db, shard)
	if err == nil {
		meta.SHA256 = hex.EncodeToString(h.Sum(nil))
	}
	if err == nil {
		// CreateTemp makes the file 0600; the artifact is meant to be read
		// by serving processes running as other users.
		err = f.Chmod(0o644)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = os.Remove(tmp)
		return nil, fmt.Errorf("snapshot: save: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		_ = os.Remove(tmp)
		return nil, fmt.Errorf("snapshot: save: %w", err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: save: %w", err)
	}
	meta.FileBytes = fi.Size()
	return meta, nil
}

// Load reads a snapshot file (mmap when the platform supports it, plain
// read otherwise) and reconstructs a query-ready database. The returned
// DB answers every query byte-identically to the freshly built database
// the snapshot was taken from. Corrupt or incompatible files return the
// package's typed errors; a missing file returns an error satisfying
// errors.Is(err, fs.ErrNotExist).
func Load(path string) (*core.DB, *Meta, error) {
	return LoadVerified(path, "")
}

// LoadVerified is Load plus content verification: when wantSHA256 is
// non-empty, the artifact's digest — computed over the already-mapped
// bytes, so the file is still read exactly once — must match it or the
// load fails with ErrShardDigest before any decoding happens; the
// computed digest is then reported in Meta.SHA256. An empty wantSHA256
// skips hashing entirely (plain Load): unverified cold starts should not
// pay an extra pass over the artifact for a digest nobody reads.
func LoadVerified(path, wantSHA256 string) (*core.DB, *Meta, error) {
	start := time.Now()
	img, err := openImage(path, wantSHA256)
	if err != nil {
		return nil, nil, err
	}
	defer img.close()
	return img.decode(start)
}

// image is a snapshot file read (mapped) once, its digest verified when
// one was asked for and its container parsed and checksummed: what every
// decode of the file shares. Decoding copies everything a database keeps,
// so close may release the bytes as soon as the last decode returns.
type image struct {
	data   []byte
	close  func()
	digest string
	byName map[string]Section
	infos  []SectionInfo
}

// openImage reads path and checks it up to, not including, the section
// decoders: the digest (when wantSHA256 is non-empty), the header, every
// section checksum, and that every section name is one this version
// writes.
func openImage(path, wantSHA256 string) (*image, error) {
	data, cleanup, err := readSnapshotFile(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: load: %w", err)
	}
	img := &image{data: data, close: cleanup}
	if wantSHA256 != "" {
		sum := sha256.Sum256(data)
		img.digest = hex.EncodeToString(sum[:])
		if img.digest != wantSHA256 {
			cleanup()
			return nil, fmt.Errorf("%w: file %s has %s, caller expects %s",
				ErrShardDigest, path, img.digest, wantSHA256)
		}
	}
	sections, err := parseContainer(data)
	if err != nil {
		cleanup()
		return nil, err
	}
	img.byName = make(map[string]Section, len(sections))
	img.infos = make([]SectionInfo, 0, len(sections))
	for _, s := range sections {
		if !knownSection(s.Name) {
			cleanup()
			return nil, fmt.Errorf("%w: %q", ErrUnknownSection, s.Name)
		}
		img.byName[s.Name] = s
		img.infos = append(img.infos, SectionInfo{Name: s.Name, Bytes: len(s.Payload)})
	}
	return img, nil
}

// need returns the named required section.
func (img *image) need(name string) (Section, error) {
	s, ok := img.byName[name]
	if !ok {
		return Section{}, fmt.Errorf("%w: %s", ErrMissingSection, name)
	}
	return s, nil
}

// shardMeta decodes the shard section, nil when the file has none.
func (img *image) shardMeta() (*ShardMeta, error) {
	s, ok := img.byName[SectionShard]
	if !ok {
		return nil, nil
	}
	var sm ShardMeta
	if err := decodeSection(s, &sm); err != nil {
		return nil, err
	}
	return &sm, nil
}

// decode reconstructs a fresh, query-ready database from the image; it
// may be called any number of times, and no two results share mutable
// state. Meta.LoadDuration runs from start.
func (img *image) decode(start time.Time) (*core.DB, *Meta, error) {
	var mp metaPayload
	if s, err := img.need(SectionMeta); err != nil {
		return nil, nil, err
	} else if err := decodeSection(s, &mp); err != nil {
		return nil, nil, err
	}
	s, err := img.need(SectionRel)
	if err != nil {
		return nil, nil, err
	}
	rel, err := decodeRel(s.Payload)
	if err != nil {
		return nil, nil, err
	}
	if s, err = img.need(SectionCore); err != nil {
		return nil, nil, err
	}
	coreState, err := decodeCoreState(s.Payload)
	if err != nil {
		return nil, nil, err
	}
	if s, err = img.need(SectionEmbedding); err != nil {
		return nil, nil, err
	}
	embedState, err := decodeEmbeddingState(s.Payload)
	if err != nil {
		return nil, nil, err
	}
	if s, err = img.need(SectionReviewIndex); err != nil {
		return nil, nil, err
	}
	reviewIdxState, err := decodeIndexState(s.Payload, SectionReviewIndex)
	if err != nil {
		return nil, nil, err
	}
	if s, err = img.need(SectionEntityIndex); err != nil {
		return nil, nil, err
	}
	entityIdxState, err := decodeIndexState(s.Payload, SectionEntityIndex)
	if err != nil {
		return nil, nil, err
	}
	if s, err = img.need(SectionExtractor); err != nil {
		return nil, nil, err
	}
	taggerState, err := decodeExtractorState(s.Payload)
	if err != nil {
		return nil, nil, err
	}
	shard, err := img.shardMeta()
	if err != nil {
		return nil, nil, err
	}

	embed, err := embedding.NewModelFromState(embedState)
	if err != nil {
		return nil, nil, fmt.Errorf("snapshot: %s: %w", SectionEmbedding, err)
	}
	reviewIdx, err := ir.NewIndexFromState(reviewIdxState)
	if err != nil {
		return nil, nil, fmt.Errorf("snapshot: %s: %w", SectionReviewIndex, err)
	}
	entityIdx, err := ir.NewIndexFromState(entityIdxState)
	if err != nil {
		return nil, nil, fmt.Errorf("snapshot: %s: %w", SectionEntityIndex, err)
	}
	db, err := core.FromState(coreState, core.Components{
		Rel:         rel,
		Embed:       embed,
		ReviewIndex: reviewIdx,
		EntityIndex: entityIdx,
		Tagger:      extract.NewPerceptronFromState(taggerState),
	})
	if err != nil {
		return nil, nil, fmt.Errorf("snapshot: %s: %w", SectionCore, err)
	}

	meta := mp.toMeta()
	meta.Shard = shard
	meta.Sections = slices.Clone(img.infos)
	meta.FileBytes = int64(len(img.data))
	meta.SHA256 = img.digest
	meta.LoadDuration = time.Since(start)
	return db, meta, nil
}
