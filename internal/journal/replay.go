package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"syscall"
)

// ReplayStats describes one replay pass over a journal directory.
type ReplayStats struct {
	// Segments is how many segment files were read.
	Segments int
	// Records is how many records were decoded and delivered.
	Records int
	// LastSeq is the sequence number of the last delivered record (0 when
	// the journal is empty).
	LastSeq uint64
	// DroppedBytes counts trailing bytes of the final segment that were
	// skipped because of tail damage; TailErr is the typed reason
	// (ErrTornRecord or ErrJournalChecksum), nil for a clean journal.
	DroppedBytes int64
	TailErr      error
}

// scanResult is one segment's scan outcome.
type scanResult struct {
	records   int   // valid records delivered
	goodBytes int64 // prefix of the file covered by header + valid records
	tailErr   error // typed tail damage (recoverable when this is the final segment)
	headerBad bool  // the segment header itself was torn
}

// scanSegmentFile validates one segment and streams its records to fn
// (which may be nil). nameSeq is the sequence number encoded in the file
// name, wantFirstSeq the sequence the journal-wide chain expects next.
// Recoverable tail damage comes back in scanResult.tailErr; structural
// damage (bad magic on a complete header, a broken sequence chain, an
// undecodable CRC-valid payload) is a hard error.
func scanSegmentFile(path string, nameSeq, wantFirstSeq uint64, fn func(seq uint64, rv Review) error) (scanResult, error) {
	var res scanResult
	data, err := os.ReadFile(path)
	if err != nil {
		return res, fmt.Errorf("journal: read segment: %w", err)
	}
	base := filepath.Base(path)
	if len(data) < segmentHeaderLen {
		// A crash while creating the segment leaves a short header; no
		// record can have been acknowledged from it.
		res.headerBad = true
		res.tailErr = fmt.Errorf("%w: segment %s header is %d of %d bytes", ErrTornRecord, base, len(data), segmentHeaderLen)
		return res, nil
	}
	if string(data[:8]) != SegmentMagic {
		return res, fmt.Errorf("%w: segment %s has bad magic %q", ErrJournalFormat, base, data[:8])
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != FormatVersion {
		return res, fmt.Errorf("%w: segment %s has version %d, this build reads %d", ErrJournalFormat, base, v, FormatVersion)
	}
	firstSeq := binary.LittleEndian.Uint64(data[12:])
	if firstSeq != nameSeq {
		return res, fmt.Errorf("%w: segment %s declares first seq %d", ErrJournalFormat, base, firstSeq)
	}
	if firstSeq != wantFirstSeq {
		return res, fmt.Errorf("%w: segment %s starts at seq %d, journal chain expects %d", ErrJournalFormat, base, firstSeq, wantFirstSeq)
	}
	res.goodBytes = segmentHeaderLen

	off := segmentHeaderLen
	next := firstSeq
	for off < len(data) {
		if len(data)-off < recordHeaderLen {
			res.tailErr = fmt.Errorf("%w: segment %s record header cut at byte %d", ErrTornRecord, base, off)
			return res, nil
		}
		payloadLen := int(binary.LittleEndian.Uint32(data[off:]))
		crc := binary.LittleEndian.Uint32(data[off+4:])
		seq := binary.LittleEndian.Uint64(data[off+8:])
		if payloadLen > maxRecordBytes {
			res.tailErr = fmt.Errorf("%w: segment %s record at byte %d declares %d payload bytes (limit %d)",
				ErrTornRecord, base, off, payloadLen, maxRecordBytes)
			return res, nil
		}
		if payloadLen > len(data)-off-recordHeaderLen {
			res.tailErr = fmt.Errorf("%w: segment %s record at byte %d declares %d payload bytes but %d remain",
				ErrTornRecord, base, off, payloadLen, len(data)-off-recordHeaderLen)
			return res, nil
		}
		payload := data[off+recordHeaderLen : off+recordHeaderLen+payloadLen]
		h := crc32.NewIEEE()
		h.Write(data[off+8 : off+16]) // seq bytes, as written
		h.Write(payload)
		if h.Sum32() != crc {
			// A torn write can only damage the final record ever written —
			// nothing follows it. A checksum mismatch on a record with more
			// bytes after it is therefore not a crash signature but
			// corruption of durable data, which must never be silently
			// dropped.
			if off+recordHeaderLen+payloadLen != len(data) {
				return res, fmt.Errorf("%w: segment %s record at byte %d has crc %08x, want %08x, with %d durable bytes after it",
					ErrJournalChecksum, base, off, h.Sum32(), crc, len(data)-off-recordHeaderLen-payloadLen)
			}
			res.tailErr = fmt.Errorf("%w: segment %s record at byte %d has crc %08x, want %08x",
				ErrJournalChecksum, base, off, h.Sum32(), crc)
			return res, nil
		}
		if seq != next {
			return res, fmt.Errorf("%w: segment %s record at byte %d carries seq %d, chain expects %d",
				ErrJournalFormat, base, off, seq, next)
		}
		rv, err := decodeReview(payload)
		if err != nil {
			return res, fmt.Errorf("journal: segment %s record seq %d: %w", base, seq, err)
		}
		if fn != nil {
			if err := fn(seq, rv); err != nil {
				return res, err
			}
		}
		off += recordHeaderLen + payloadLen
		res.goodBytes = int64(off)
		res.records++
		next++
	}
	return res, nil
}

// Replay reads a journal directory in sequence order, delivering every
// intact record to fn. A missing directory is an empty journal (nothing
// has been ingested since the snapshot), not an error. Tail damage on the
// final segment is skipped and reported in the stats — the crash-recovery
// contract — while damage in any fully durable position is a hard typed
// error. Replay never modifies the journal; Open is what truncates a
// damaged tail before new appends.
func Replay(dir string, fn func(seq uint64, rv Review) error) (ReplayStats, error) {
	return replay(dir, fn, nil)
}

// replay is Replay with a segment-end hook: settle, when non-nil, runs
// once each segment's records have been delivered, before the segment
// enters the stats or its damage is judged, and an error from it ends the
// replay there. A consumer that lags behind fn (ApplyAll's fold) catches
// up in it, so its error reaches the caller with the stats Replay has
// when fn itself fails at that record.
func replay(dir string, fn func(seq uint64, rv Review) error, settle func() error) (ReplayStats, error) {
	var stats ReplayStats
	paths, seqs, err := listSegments(dir)
	if err != nil {
		if os.IsNotExist(err) || isNotDir(err) {
			return stats, nil
		}
		return stats, fmt.Errorf("journal: replay: %w", err)
	}
	next := uint64(1)
	for i, path := range paths {
		last := i == len(paths)-1
		res, err := scanSegmentFile(path, seqs[i], next, fn)
		if settle != nil {
			if err := settle(); err != nil {
				return stats, err
			}
		}
		if err != nil {
			return stats, err
		}
		if res.tailErr != nil && !last {
			return stats, fmt.Errorf("journal: segment %s: %w", filepath.Base(path), res.tailErr)
		}
		stats.Segments++
		stats.Records += res.records
		next += uint64(res.records)
		if res.tailErr != nil {
			fi, statErr := os.Stat(path)
			if statErr == nil {
				stats.DroppedBytes = fi.Size() - res.goodBytes
			}
			stats.TailErr = res.tailErr
			break
		}
	}
	if stats.Records > 0 {
		stats.LastSeq = next - 1
	}
	return stats, nil
}

// isNotDir reports whether err came from treating a non-directory as a
// directory (a stray file where the journal dir should be).
func isNotDir(err error) bool {
	return errors.Is(err, syscall.ENOTDIR)
}
