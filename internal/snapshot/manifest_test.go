package snapshot_test

// Shard-manifest integrity: round-trip, self-checksum tamper detection,
// structural validation, and snapshot digest verification.

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/snapshot"
)

func validManifest() *snapshot.Manifest {
	return &snapshot.Manifest{
		FormatVersion: snapshot.FormatVersion,
		Name:          "hotel",
		BuildSeed:     1,
		Shards:        2,
		TotalEntities: 45,
		CreatedUnix:   1700000000,
		Shard: []snapshot.ManifestShard{
			{Index: 0, Path: "hotel-shard0.snap", Entities: 22, FirstEntity: "h0000", LastEntity: "h0021",
				SnapshotSHA256: "aa", SnapshotBytes: 10},
			{Index: 1, Path: "hotel-shard1.snap", Entities: 23, FirstEntity: "h0022", LastEntity: "h0044",
				SnapshotSHA256: "bb", SnapshotBytes: 10},
		},
	}
}

func TestManifestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	if err := snapshot.WriteManifest(path, validManifest()); err != nil {
		t.Fatal(err)
	}
	m, err := snapshot.LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.Shards != 2 || m.TotalEntities != 45 || m.Shard[1].FirstEntity != "h0022" {
		t.Errorf("round trip lost data: %+v", m)
	}
	if m.Checksum == "" {
		t.Error("checksum not recorded")
	}
}

func TestManifestTamperDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	if err := snapshot.WriteManifest(path, validManifest()); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip the entity range of shard 1 without updating the checksum.
	tampered := strings.Replace(string(b), "h0022", "h0023", 1)
	if tampered == string(b) {
		t.Fatal("tamper target not found")
	}
	if err := os.WriteFile(path, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := snapshot.LoadManifest(path); !errors.Is(err, snapshot.ErrManifestChecksum) {
		t.Fatalf("got %v, want ErrManifestChecksum", err)
	}
}

func TestManifestValidation(t *testing.T) {
	dir := t.TempDir()
	for name, mutate := range map[string]func(*snapshot.Manifest){
		"wrong version":     func(m *snapshot.Manifest) { m.FormatVersion = 99 },
		"previous version":  func(m *snapshot.Manifest) { m.FormatVersion = snapshot.FormatVersion - 1 },
		"count mismatch":    func(m *snapshot.Manifest) { m.Shards = 3 },
		"bad index":         func(m *snapshot.Manifest) { m.Shard[1].Index = 5 },
		"missing path":      func(m *snapshot.Manifest) { m.Shard[0].Path = "" },
		"missing digest":    func(m *snapshot.Manifest) { m.Shard[0].SnapshotSHA256 = "" },
		"empty shard":       func(m *snapshot.Manifest) { m.Shard[0].Entities = 0 },
		"entity accounting": func(m *snapshot.Manifest) { m.TotalEntities = 99 },
		"per-range length":  func(m *snapshot.Manifest) { m.ReplicasPerRange = []int{2} },
		"per-range sign":    func(m *snapshot.Manifest) { m.ReplicasPerRange = []int{2, -1} },
	} {
		m := validManifest()
		mutate(m)
		path := filepath.Join(dir, "bad.json")
		switch err := snapshot.WriteManifest(path, m); {
		case err == nil:
			t.Errorf("%s: write accepted an invalid manifest", name)
		case !errors.Is(err, snapshot.ErrManifest):
			t.Errorf("%s: got %v, want ErrManifest", name, err)
		case strings.HasSuffix(name, "version") && !errors.Is(err, snapshot.ErrVersion):
			t.Errorf("%s: got %v, want ErrVersion", name, err)
		}
	}
}

// TestReplicaCountNormalization pins the backward-compatible replica
// shape: bare manifests are single-replica, the uniform field applies
// everywhere, and per-range entries win over it.
func TestReplicaCountNormalization(t *testing.T) {
	cases := []struct {
		name     string
		uniform  int
		perRange []int
		want     []int // per shard of a 2-shard manifest
	}{
		{"bare", 0, nil, []int{1, 1}},
		{"uniform", 3, nil, []int{3, 3}},
		{"per-range", 0, []int{3, 1}, []int{3, 1}},
		{"per-range wins over uniform", 2, []int{3, 0}, []int{3, 1}},
	}
	for _, tc := range cases {
		m := validManifest()
		m.Replicas = tc.uniform
		m.ReplicasPerRange = tc.perRange
		path := filepath.Join(t.TempDir(), "m.json")
		if err := snapshot.WriteManifest(path, m); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		loaded, err := snapshot.LoadManifest(path)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for shard, want := range tc.want {
			if got := loaded.ReplicaCount(shard); got != want {
				t.Errorf("%s: ReplicaCount(%d) = %d, want %d", tc.name, shard, got, want)
			}
		}
		// Out-of-range shards normalize rather than panic.
		if got := loaded.ReplicaCount(99); got < 1 {
			t.Errorf("%s: ReplicaCount(99) = %d", tc.name, got)
		}
	}
}

func TestParseReplicaSpec(t *testing.T) {
	cases := []struct {
		spec        string
		shards      int
		wantPer     []int
		wantUniform int
		wantErr     bool
	}{
		{"", 3, nil, 0, false},
		{"0", 3, nil, 0, false},
		{"3", 3, nil, 3, false},
		{" 2 ", 3, nil, 2, false},
		{"0=3,2=2", 3, []int{3, 1, 2}, 0, false},
		{"1=2", 3, []int{1, 2, 1}, 0, false},
		{"-1", 3, nil, 0, true},
		{"x", 3, nil, 0, true},
		{"3,0=2", 3, nil, 0, true},   // mixed forms
		{"0=2,1", 3, nil, 0, true},   // mixed forms, pair first
		{"3=2", 3, nil, 0, true},     // shard out of range
		{"0=0", 3, nil, 0, true},     // per-range count must be >= 1
		{"0=2,0=3", 3, nil, 0, true}, // duplicate shard
	}
	for _, tc := range cases {
		per, uniform, err := snapshot.ParseReplicaSpec(tc.spec, tc.shards)
		if tc.wantErr {
			if err == nil {
				t.Errorf("spec %q: accepted, want error", tc.spec)
			}
			continue
		}
		if err != nil {
			t.Errorf("spec %q: %v", tc.spec, err)
			continue
		}
		if uniform != tc.wantUniform {
			t.Errorf("spec %q: uniform = %d, want %d", tc.spec, uniform, tc.wantUniform)
		}
		if len(per) != len(tc.wantPer) {
			t.Errorf("spec %q: perRange = %v, want %v", tc.spec, per, tc.wantPer)
			continue
		}
		for i := range per {
			if per[i] != tc.wantPer[i] {
				t.Errorf("spec %q: perRange = %v, want %v", tc.spec, per, tc.wantPer)
				break
			}
		}
	}
}

func TestManifestNotJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	if err := os.WriteFile(path, []byte("not json at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := snapshot.LoadManifest(path); !errors.Is(err, snapshot.ErrManifest) {
		t.Fatalf("got %v, want ErrManifest", err)
	}
}

func TestManifestMissingFile(t *testing.T) {
	if _, err := snapshot.LoadManifest(filepath.Join(t.TempDir(), "nope.json")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("got %v, want fs.ErrNotExist", err)
	}
}

func TestLoadVerifiedDigest(t *testing.T) {
	dir := t.TempDir()
	snapPath := filepath.Join(dir, "s0.snap")
	if err := os.WriteFile(snapPath, []byte("not a real snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	digest := hex.EncodeToString(sum[:])
	// The digest gate runs before any decoding: a wrong digest is
	// ErrShardDigest, a right digest proceeds into the parser (which
	// rejects this non-snapshot with ErrBadMagic).
	if _, _, err := snapshot.LoadVerified(snapPath, "0badd1ge5t"); !errors.Is(err, snapshot.ErrShardDigest) {
		t.Fatalf("got %v, want ErrShardDigest", err)
	}
	if _, _, err := snapshot.LoadVerified(snapPath, digest); !errors.Is(err, snapshot.ErrBadMagic) {
		t.Fatalf("got %v, want ErrBadMagic past the digest gate", err)
	}
}

// TestShardSectionRoundTrip checks the shard identity survives
// save → load on a real database.
func TestShardSectionRoundTrip(t *testing.T) {
	_, db, _ := fixtures(t)
	parts, err := db.PartitionEntities(2)
	if err != nil {
		t.Fatal(err)
	}
	keep := map[string]bool{}
	for _, id := range parts[0] {
		keep[id] = true
	}
	shardDB, err := db.ShardDB(func(id string) bool { return keep[id] })
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "shard0.snap")
	sm := &snapshot.ShardMeta{
		Index: 0, Count: 2,
		Entities: len(parts[0]), TotalEntities: len(db.EntityIDs()),
		FirstEntity: parts[0][0], LastEntity: parts[0][len(parts[0])-1],
	}
	if _, err := snapshot.SaveShard(path, shardDB, sm); err != nil {
		t.Fatal(err)
	}
	loaded, meta, err := snapshot.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Shard == nil {
		t.Fatal("shard identity lost in round trip")
	}
	if *meta.Shard != *sm {
		t.Errorf("shard meta %+v, want %+v", *meta.Shard, *sm)
	}
	if got, want := len(loaded.EntityIDs()), len(parts[0]); got != want {
		t.Errorf("loaded shard serves %d entities, want %d", got, want)
	}
}
