package snapshot

// The shard manifest ties a sharded build together: one JSON document
// naming every per-shard snapshot with its entity range and content
// digest, self-checksummed so a torn or hand-edited manifest is detected
// before a router trusts it. opinedbb -shards writes it next to the shard
// snapshots; opinedbd (shard or router mode) loads it, verifies it, and
// verifies each snapshot file against its recorded digest before serving.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
)

// Typed manifest errors; match with errors.Is. Manifest loads can also
// return fs.ErrNotExist for a missing file.
var (
	// ErrManifest: the manifest is structurally invalid (bad shard count,
	// non-contiguous indices, missing fields, wrong version).
	ErrManifest = errors.New("snapshot: invalid shard manifest")
	// ErrManifestChecksum: the manifest's self-checksum does not match its
	// contents.
	ErrManifestChecksum = errors.New("snapshot: shard manifest checksum mismatch")
	// ErrShardDigest: a shard snapshot file does not match the digest the
	// manifest records for it.
	ErrShardDigest = errors.New("snapshot: shard snapshot digest mismatch")
)

// ManifestShard describes one shard's snapshot artifact.
type ManifestShard struct {
	// Index is the shard's position in [0, Shards).
	Index int `json:"index"`
	// Path is the snapshot file, relative to the manifest's directory.
	Path string `json:"path"`
	// Entities is the number of entities the shard owns.
	Entities int `json:"entities"`
	// FirstEntity and LastEntity bound the shard's contiguous id range
	// (inclusive).
	FirstEntity string `json:"first_entity"`
	LastEntity  string `json:"last_entity"`
	// SnapshotSHA256 is the hex SHA-256 of the snapshot file.
	SnapshotSHA256 string `json:"snapshot_sha256"`
	// SnapshotBytes is the snapshot file size.
	SnapshotBytes int64 `json:"snapshot_bytes"`
}

// Manifest describes a complete sharded build.
type Manifest struct {
	// FormatVersion is the snapshot format version of the shard files.
	FormatVersion uint32 `json:"format_version"`
	// Name is the database name ("hotel", "restaurant").
	Name string `json:"name"`
	// BuildSeed is the Config.Seed of the build.
	BuildSeed int64 `json:"build_seed"`
	// Shards is the fleet size.
	Shards int `json:"shards"`
	// Replicas is the per-range replica-set size: how many equivalent
	// serving backends each shard range is deployed with. Every replica
	// of a range serves the same snapshot artifact (same digest), so the
	// field changes deployment shape, not the artifact set. 0 or absent
	// means single-replica — manifests written before replication
	// existed load (and checksum-verify) unchanged.
	Replicas int `json:"replicas,omitempty"`
	// ReplicasPerRange, when present, gives each shard range its own
	// replica-set size (index-aligned with Shard) so a hot range can run
	// R=3 while a cold one runs R=1. It takes precedence over Replicas;
	// entries <= 0 normalize to single-replica. Absent means the uniform
	// Replicas field (or single-replica) applies to every range, so
	// manifests from uniform builds load unchanged.
	ReplicasPerRange []int `json:"replicas_per_range,omitempty"`
	// TotalEntities is the monolithic entity count (sum over shards).
	TotalEntities int `json:"total_entities"`
	// CreatedUnix is when the manifest was written (Unix seconds).
	CreatedUnix int64 `json:"created_unix"`
	// Shard lists the per-shard artifacts, ordered by index.
	Shard []ManifestShard `json:"shard"`
	// Checksum is the hex SHA-256 of the manifest's canonical JSON with
	// this field empty; WriteManifest fills it, LoadManifest verifies it.
	Checksum string `json:"checksum"`
}

// ReplicaCount normalizes the replica-count fields for one shard range:
// a per-range entry wins when present, the uniform Replicas field
// applies otherwise, and manifests written before replication existed
// (and explicit 0/1 builds) are single-replica. Out-of-range shard
// indices normalize like absent entries rather than panicking, so
// callers can ask about a shard before validating.
func (m *Manifest) ReplicaCount(shard int) int {
	n := m.Replicas
	if shard >= 0 && shard < len(m.ReplicasPerRange) {
		n = m.ReplicasPerRange[shard]
	}
	if n < 1 {
		return 1
	}
	return n
}

// ParseReplicaSpec parses the -replicas flag grammar shared by opinedbb
// and opinedbd. Two forms:
//
//	"3"              uniform: every range gets 3 replicas → (nil, 3)
//	"0=3,2=2"        per-range: listed ranges get the given count, the
//	                 rest default to 1 → ([]int of length shards, 0)
//
// "" and "0" mean "follow the manifest / single-replica" → (nil, 0).
// The two forms cannot be mixed ("3,0=2" is an error): a bare count is
// a fleet-wide statement and a pair list is a complete per-range
// assignment; mixing them has no unambiguous reading.
func ParseReplicaSpec(spec string, shards int) (perRange []int, uniform int, err error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, 0, nil
	}
	parts := strings.Split(spec, ",")
	pairs := strings.Contains(parts[0], "=")
	if !pairs {
		if len(parts) > 1 {
			return nil, 0, fmt.Errorf("replica spec %q mixes a bare count with more fields; use N or shard=N pairs", spec)
		}
		n, err := strconv.Atoi(parts[0])
		if err != nil || n < 0 {
			return nil, 0, fmt.Errorf("replica spec %q: want a non-negative count or shard=N pairs", spec)
		}
		return nil, n, nil
	}
	perRange = make([]int, shards)
	for i := range perRange {
		perRange[i] = 1
	}
	seen := make(map[int]bool, len(parts))
	for _, p := range parts {
		k, v, ok := strings.Cut(strings.TrimSpace(p), "=")
		if !ok {
			return nil, 0, fmt.Errorf("replica spec %q mixes shard=N pairs with a bare count", spec)
		}
		shard, err := strconv.Atoi(k)
		if err != nil || shard < 0 || shard >= shards {
			return nil, 0, fmt.Errorf("replica spec %q: shard %q out of range [0,%d)", spec, k, shards)
		}
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return nil, 0, fmt.Errorf("replica spec %q: count %q for shard %d must be >= 1", spec, v, shard)
		}
		if seen[shard] {
			return nil, 0, fmt.Errorf("replica spec %q assigns shard %d twice", spec, shard)
		}
		seen[shard] = true
		perRange[shard] = n
	}
	return perRange, 0, nil
}

// checksum computes the manifest's self-checksum: SHA-256 over the
// canonical JSON encoding with the Checksum field blanked.
func (m *Manifest) checksum() (string, error) {
	cp := *m
	cp.Checksum = ""
	b, err := json.Marshal(&cp)
	if err != nil {
		return "", fmt.Errorf("snapshot: manifest checksum: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// validate checks structural integrity: version, shard count, contiguous
// indices, entity accounting, and per-shard fields.
func (m *Manifest) validate() error {
	if m.FormatVersion != FormatVersion {
		return fmt.Errorf("%w: %w: format version %d, this build reads %d", ErrManifest, ErrVersion, m.FormatVersion, FormatVersion)
	}
	if m.Shards <= 0 || len(m.Shard) != m.Shards {
		return fmt.Errorf("%w: declares %d shards but lists %d", ErrManifest, m.Shards, len(m.Shard))
	}
	if m.Replicas < 0 {
		return fmt.Errorf("%w: negative replica count %d", ErrManifest, m.Replicas)
	}
	if len(m.ReplicasPerRange) > 0 && len(m.ReplicasPerRange) != m.Shards {
		return fmt.Errorf("%w: replicas_per_range lists %d ranges for %d shards",
			ErrManifest, len(m.ReplicasPerRange), m.Shards)
	}
	for i, n := range m.ReplicasPerRange {
		if n < 0 {
			return fmt.Errorf("%w: negative replica count %d for range %d", ErrManifest, n, i)
		}
	}
	total := 0
	for i, s := range m.Shard {
		if s.Index != i {
			return fmt.Errorf("%w: shard at position %d carries index %d", ErrManifest, i, s.Index)
		}
		if s.Path == "" {
			return fmt.Errorf("%w: shard %d has no snapshot path", ErrManifest, i)
		}
		if s.SnapshotSHA256 == "" {
			return fmt.Errorf("%w: shard %d has no snapshot digest", ErrManifest, i)
		}
		if s.Entities <= 0 {
			return fmt.Errorf("%w: shard %d owns %d entities", ErrManifest, i, s.Entities)
		}
		total += s.Entities
	}
	if total != m.TotalEntities {
		return fmt.Errorf("%w: shards account for %d of %d entities", ErrManifest, total, m.TotalEntities)
	}
	return nil
}

// WriteManifest validates m, fills its checksum, and writes it atomically
// (temp file + rename, like Save) to path.
func WriteManifest(path string, m *Manifest) error {
	if err := m.validate(); err != nil {
		return err
	}
	sum, err := m.checksum()
	if err != nil {
		return err
	}
	m.Checksum = sum
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("snapshot: write manifest: %w", err)
	}
	b = append(b, '\n')
	f, err := os.CreateTemp(filepath.Dir(path), ".opinedb-manifest-*")
	if err != nil {
		return fmt.Errorf("snapshot: write manifest: %w", err)
	}
	tmp := f.Name()
	_, err = f.Write(b)
	if err == nil {
		err = f.Chmod(0o644)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("snapshot: write manifest: %w", err)
	}
	return nil
}

// LoadManifest reads, checksum-verifies and validates a shard manifest.
func LoadManifest(path string) (*Manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: load manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrManifest, err)
	}
	want, err := m.checksum()
	if err != nil {
		return nil, err
	}
	if m.Checksum != want {
		return nil, fmt.Errorf("%w: stored %s, computed %s", ErrManifestChecksum, m.Checksum, want)
	}
	if err := m.validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// ShardPath resolves a shard's snapshot path relative to the manifest
// file's location.
func ShardPath(manifestPath string, s ManifestShard) string {
	if filepath.IsAbs(s.Path) {
		return s.Path
	}
	return filepath.Join(filepath.Dir(manifestPath), s.Path)
}

// LoadVerifiedShard loads shard index of a manifest with the full trust
// chain every serving path must apply: the snapshot file is checked
// against the manifest's digest, required to carry the shard identity the
// manifest assigns it, and loaded. Both opinedbd's shard-replica role and
// the in-process router fleet go through here (the fleet through
// OpenShard, which it decodes once per replica). Digest verification
// happens over the bytes the loader already mapped, so fleet bring-up
// reads every snapshot exactly once instead of streaming each file twice.
func LoadVerifiedShard(manifestPath string, m *Manifest, index int) (*core.DB, *Meta, error) {
	start := time.Now()
	si, err := OpenShard(manifestPath, m, index)
	if err != nil {
		return nil, nil, err
	}
	defer si.Close()
	return si.decode(start)
}

// ShardImage is one shard snapshot of a manifest, read, digest-verified
// and checked for its shard identity once, and decodable into any number
// of independent databases: a range's replicas share the verification,
// never state. Close releases the file's bytes once no Decode is running.
type ShardImage struct {
	img   *image
	index int
}

// OpenShard reads shard index of a manifest and applies LoadVerifiedShard's
// trust chain short of decoding: the digest against the manifest, the
// container checksums, and the shard identity the file claims.
func OpenShard(manifestPath string, m *Manifest, index int) (*ShardImage, error) {
	if index < 0 || index >= len(m.Shard) {
		return nil, fmt.Errorf("%w: shard index %d of %d", ErrManifest, index, len(m.Shard))
	}
	ms := m.Shard[index]
	path := ShardPath(manifestPath, ms)
	img, err := openImage(path, ms.SnapshotSHA256)
	if err != nil {
		if errors.Is(err, ErrShardDigest) {
			return nil, fmt.Errorf("%w (shard %d, manifest %s)", err, index, manifestPath)
		}
		return nil, fmt.Errorf("snapshot: shard %d: %w", index, err)
	}
	sm, err := img.shardMeta()
	if err != nil {
		err = fmt.Errorf("snapshot: shard %d: %w", index, err)
	} else if sm == nil || sm.Index != index || sm.Count != m.Shards {
		err = fmt.Errorf("%w: snapshot %s does not identify as shard %d/%d",
			ErrManifest, path, index, m.Shards)
	}
	if err != nil {
		img.close()
		return nil, err
	}
	return &ShardImage{img: img, index: index}, nil
}

// Decode reconstructs a fresh, query-ready database from the shard image.
// Concurrent calls are safe; no two results share mutable state.
func (si *ShardImage) Decode() (*core.DB, *Meta, error) { return si.decode(time.Now()) }

func (si *ShardImage) decode(start time.Time) (*core.DB, *Meta, error) {
	db, meta, err := si.img.decode(start)
	if err != nil {
		return nil, nil, fmt.Errorf("snapshot: shard %d: %w", si.index, err)
	}
	return db, meta, nil
}

// Close releases the image's bytes. No Decode may run during or after it.
func (si *ShardImage) Close() { si.img.close() }
