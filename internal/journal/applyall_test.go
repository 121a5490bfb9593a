package journal_test

// ApplyAll prepares records ahead of the fold on a worker pool. These
// tests hold it to the serial loop it replaced: one core.ApplyReview per
// record, in journal order, on the caller's goroutine.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/embedding"
	"repro/internal/harness"
	"repro/internal/journal"
	"repro/internal/snapshot"
)

// serialApplyAll is the serial replay loop, kept verbatim as the oracle.
func serialApplyAll(db *core.DB, dir string) (journal.ApplyStats, error) {
	var st journal.ApplyStats
	stats, err := journal.Replay(dir, func(seq uint64, rv journal.Review) error {
		if db.HasReview(rv.ID) {
			st.Skipped++
			return nil
		}
		if err := db.ApplyReview(core.ReviewData{
			ID: rv.ID, EntityID: rv.EntityID, Reviewer: rv.Reviewer,
			Day: rv.Day, Text: rv.Text,
		}); err != nil {
			return fmt.Errorf("journal: apply seq %d (review %s): %w", seq, rv.ID, err)
		}
		st.Applied++
		return nil
	})
	st.ReplayStats = stats
	return st, err
}

// On-disk layout the crafted records need (journal.go): a segment header
// of magic, format version and first seq, then records of payload length,
// CRC over seq+payload, and seq, each followed by its payload.
const (
	segmentHeaderBytes = 20
	recordHeaderBytes  = 16
)

// rewriteRecord replaces the payload of record seq, wherever it is in the
// journal at dir, and gives it a matching CRC: the record reads back
// intact, holding bytes the encoder would have refused.
func rewriteRecord(t *testing.T, dir string, seq uint64, payload []byte) {
	t.Helper()
	for _, path := range segments(t, dir) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for off := segmentHeaderBytes; off+recordHeaderBytes <= len(data); {
			n := int(binary.LittleEndian.Uint32(data[off:]))
			if binary.LittleEndian.Uint64(data[off+8:]) != seq {
				off += recordHeaderBytes + n
				continue
			}
			hdr := make([]byte, recordHeaderBytes)
			binary.LittleEndian.PutUint32(hdr, uint32(len(payload)))
			binary.LittleEndian.PutUint64(hdr[8:], seq)
			binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(append(hdr[8:16:16], payload...)))
			out := append(append(append([]byte(nil), data[:off]...), hdr...), payload...)
			out = append(out, data[off+recordHeaderBytes+n:]...)
			if err := os.WriteFile(path, out, 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
	}
	t.Fatalf("no record %d in %s", seq, dir)
}

// reviewPayload encodes an add-review record payload the way the journal
// does, without its refusal of an empty entity id.
func reviewPayload(rv journal.Review) []byte {
	b := []byte{1}
	for _, s := range []string{rv.ID, rv.EntityID, rv.Reviewer, rv.Text} {
		b = binary.AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}
	return binary.AppendVarint(b, int64(rv.Day))
}

// segments lists the journal's segment files in seq order: their names
// are zero-padded seqs, and Glob sorts.
func segments(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("segments of %s: %v (%d files)", dir, err, len(paths))
	}
	return paths
}

// sameSummaries reports the first difference between two databases'
// marker summaries, floats compared bit for bit.
func sameSummaries(a, b *core.DB) error {
	sa, sb := a.State().Summaries, b.State().Summaries
	if len(sa) != len(sb) {
		return fmt.Errorf("%d attributes with summaries, want %d", len(sa), len(sb))
	}
	bits := func(xs []float64) []uint64 {
		out := make([]uint64, len(xs))
		for i, x := range xs {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	for attr, byEntity := range sb {
		if len(sa[attr]) != len(byEntity) {
			return fmt.Errorf("%s: %d summaries, want %d", attr, len(sa[attr]), len(byEntity))
		}
		for entity, want := range byEntity {
			got := sa[attr][entity]
			if got == nil {
				return fmt.Errorf("%s/%s: no summary", attr, entity)
			}
			same := math.Float64bits(got.Total) == math.Float64bits(want.Total) &&
				slices.Equal(bits(got.Counts), bits(want.Counts)) &&
				slices.Equal(bits(got.SentSum), bits(want.SentSum)) &&
				slices.EqualFunc(got.VecSum, want.VecSum, func(x, y embedding.Vector) bool { return slices.Equal(bits(x), bits(y)) }) &&
				slices.EqualFunc(got.Provenance, want.Provenance, slices.Equal)
			if !same {
				return fmt.Errorf("%s/%s: summaries differ", attr, entity)
			}
		}
	}
	return nil
}

// TestApplyAllEqualsSerialFold replays journals of every shape ApplyAll
// meets, at one and two workers (a window of 4 and 8 records, which
// fills inside the cases' one long segment and not inside their short
// ones), and requires the serial loop's stats, error and state. ApplyPrepared's one failure, a duplicate, cannot be reached
// past the fold's HasReview skip; every failure Replay or PrepareReview
// can produce is.
func TestApplyAllEqualsSerialFold(t *testing.T) {
	d, deltas, snap := e2eFixture(t)
	// A base that already holds the first four deltas, as after a crash
	// between a compaction's rename and its journal removal.
	ahead := loadBase(t, snap)
	applyDirect(t, ahead, deltas[:4])
	aheadSnap := filepath.Join(t.TempDir(), "ahead.snap")
	if _, err := snapshot.Save(aheadSnap, ahead); err != nil {
		t.Fatal(err)
	}
	small := journal.Options{SegmentMaxBytes: 700}
	repeated := slices.Concat(deltas[:6], []core.ReviewData{deltas[1], deltas[4]}, deltas[6:], deltas[:1])

	cases := []struct {
		name  string
		base  string
		write func(t *testing.T, dir string)
		// check holds the serial oracle to the shape the case claims.
		check func(st journal.ApplyStats, err error) error
	}{
		{"reviews already in the snapshot", aheadSnap,
			func(t *testing.T, dir string) { journalDeltas(t, dir, deltas, journal.Options{}) },
			func(st journal.ApplyStats, err error) error {
				if err != nil || st.Skipped != 4 || st.Applied != len(deltas)-4 {
					return fmt.Errorf("applied %d, skipped %d: %v", st.Applied, st.Skipped, err)
				}
				return nil
			}},
		{"a review repeated in the journal", snap,
			func(t *testing.T, dir string) { journalDeltas(t, dir, repeated, journal.Options{}) },
			func(st journal.ApplyStats, err error) error {
				if err != nil || st.Skipped != 3 || st.Applied != len(deltas) {
					return fmt.Errorf("applied %d, skipped %d: %v", st.Applied, st.Skipped, err)
				}
				return nil
			}},
		{"several segments", snap,
			func(t *testing.T, dir string) { journalDeltas(t, dir, repeated, small) },
			func(st journal.ApplyStats, err error) error {
				if err != nil || st.Segments < 4 || st.Applied != len(deltas) {
					return fmt.Errorf("%d segments, applied %d: %v", st.Segments, st.Applied, err)
				}
				return nil
			}},
		{"a torn tail in the last segment", snap,
			func(t *testing.T, dir string) {
				journalDeltas(t, dir, repeated, small)
				paths := segments(t, dir)
				last := paths[len(paths)-1]
				fi, err := os.Stat(last)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.Truncate(last, fi.Size()-7); err != nil {
					t.Fatal(err)
				}
			},
			func(st journal.ApplyStats, err error) error {
				if err != nil || st.TailErr == nil || st.DroppedBytes == 0 || st.Segments < 4 {
					return fmt.Errorf("tail %v, dropped %d, %d segments: %v", st.TailErr, st.DroppedBytes, st.Segments, err)
				}
				return nil
			}},
		{"a review without an entity mid-journal", snap,
			func(t *testing.T, dir string) {
				journalDeltas(t, dir, repeated, small)
				rewriteRecord(t, dir, 7, reviewPayload(journal.Review{ID: "no-entity", Reviewer: "v", Day: 9, Text: "Clean room."}))
			},
			func(st journal.ApplyStats, err error) error {
				if err == nil || !strings.Contains(err.Error(), "apply seq 7 (review no-entity)") {
					return fmt.Errorf("error %v, want the failure at seq 7", err)
				}
				return nil
			}},
		{"an undecodable record mid-journal", snap,
			func(t *testing.T, dir string) {
				journalDeltas(t, dir, repeated, small)
				rewriteRecord(t, dir, 7, []byte{0xff})
			},
			func(st journal.ApplyStats, err error) error {
				if err == nil || !strings.Contains(err.Error(), "record seq 7") {
					return fmt.Errorf("error %v, want the failure at seq 7", err)
				}
				return nil
			}},
		{"a damaged record in a segment before the last", snap,
			func(t *testing.T, dir string) {
				journalDeltas(t, dir, repeated, small)
				first := segments(t, dir)[0]
				data, err := os.ReadFile(first)
				if err != nil {
					t.Fatal(err)
				}
				data[len(data)-3] ^= 0x40 // the last record's payload
				if err := os.WriteFile(first, data, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			func(st journal.ApplyStats, err error) error {
				if err == nil || !strings.Contains(err.Error(), "checksum") {
					return fmt.Errorf("error %v, want a checksum failure", err)
				}
				return nil
			}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "j")
			c.write(t, dir)
			want := loadBase(t, c.base)
			wantSt, wantErr := serialApplyAll(want, dir)
			if err := c.check(wantSt, wantErr); err != nil {
				t.Fatalf("the serial fold does not see the case: %v", err)
			}
			wantFP, n := harness.QueryFingerprint(d, want)
			if n != 948 {
				t.Fatalf("fingerprint covers %d entries, want 948", n)
			}
			for _, procs := range []int{1, 2} {
				prev := runtime.GOMAXPROCS(procs)
				got := loadBase(t, c.base)
				st, err := journal.ApplyAll(got, dir)
				runtime.GOMAXPROCS(prev)
				if fmt.Sprint(err) != fmt.Sprint(wantErr) {
					t.Fatalf("GOMAXPROCS %d: error %v, want %v", procs, err, wantErr)
				}
				if fmt.Sprint(st.TailErr) != fmt.Sprint(wantSt.TailErr) {
					t.Fatalf("GOMAXPROCS %d: tail error %v, want %v", procs, st.TailErr, wantSt.TailErr)
				}
				st.TailErr = wantSt.TailErr
				if st != wantSt {
					t.Fatalf("GOMAXPROCS %d: stats %+v, want %+v", procs, st, wantSt)
				}
				if fp, _ := harness.QueryFingerprint(d, got); fp != wantFP {
					t.Fatalf("GOMAXPROCS %d: the replayed fingerprint differs from the serial fold's", procs)
				}
				if err := sameSummaries(got, want); err != nil {
					t.Fatalf("GOMAXPROCS %d: %v", procs, err)
				}
			}
		})
	}
}
