// Package snapshot persists a fully built core.DB as a single versioned
// binary artifact — the build-once / serve-many split: cmd/opinedbb runs
// the expensive construction pipeline (§4) and writes a snapshot; any
// number of cmd/opinedbd servers load it and answer queries immediately,
// byte-identically to a fresh build.
//
// # Container format (version 1)
//
// A snapshot is a length-prefixed section container. All integers are
// little-endian.
//
//	offset 0   magic "OPDBSNAP" (8 bytes)
//	offset 8   uint32 format version
//	offset 12  uint32 section count
//	           section table, one entry per section:
//	             uint16 name length, name bytes,
//	             uint64 payload length, uint32 CRC-32 (IEEE) of payload
//	           section payloads, concatenated in table order
//
// Section payloads are the hand-rolled length-prefixed encodings of
// codec.go over the exported state structs each subsystem package
// provides (core.DBState, the relstore.Table schema and rows,
// embedding.ModelState, ir.IndexState, extract.PerceptronState); only the
// tiny meta and shard sections use encoding/gob. New sections should use
// the codec.go primitives too —
// sorted-map, fixed-float encoding is what keeps artifacts byte-stable
// across identical builds and decoding fast.
// The container does framing, versioning and integrity only; the owning
// packages define what state means.
//
// Corrupt or incompatible files yield typed errors — ErrBadMagic,
// ErrVersion, ErrTruncated, ErrChecksum, ErrMissingSection,
// ErrUnknownSection, ErrTrailingData — never panics, so a serving process
// refuses an unusable snapshot with a reason instead of crashing on it.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Magic identifies a snapshot file; it is the first 8 bytes.
const Magic = "OPDBSNAP"

// FormatVersion is the container version this package writes and the only
// one it accepts; bump it on any incompatible layout or state change.
// Version 2 added the optional "shard" section (horizontal sharding) and
// the shard manifest format. Version 3 dropped the write-only Reviews and
// Extractions relations from the "rel" section (it now carries Entities
// alone) and added per-reviewer review counts to the "core" section.
// Version 4 dropped the Appendix B "subindex" section and the
// configuration's substitution-index byte from the "core" section.
// Version 5 partitioned the extraction relation: the "core" section holds
// the review → (attribute, marker) table of every review, then the full
// extraction rows of the served entities only.
const FormatVersion uint32 = 5

// Typed errors for unusable snapshot files. Wrapped with context by the
// parser; match with errors.Is.
var (
	// ErrBadMagic: the file does not start with the snapshot magic.
	ErrBadMagic = errors.New("snapshot: bad magic (not a snapshot file)")
	// ErrVersion: the file's format version differs from FormatVersion.
	ErrVersion = errors.New("snapshot: unsupported format version")
	// ErrTruncated: the file ends before its declared contents do.
	ErrTruncated = errors.New("snapshot: truncated file")
	// ErrChecksum: a section's payload does not match its stored CRC.
	ErrChecksum = errors.New("snapshot: section checksum mismatch")
	// ErrMissingSection: a required section is absent.
	ErrMissingSection = errors.New("snapshot: missing section")
	// ErrUnknownSection: the file carries a section this version never
	// writes.
	ErrUnknownSection = errors.New("snapshot: unknown section")
	// ErrTrailingData: the file continues past the last declared section.
	ErrTrailingData = errors.New("snapshot: trailing data after the last section")
)

// Section is one named, checksummed payload of the container.
type Section struct {
	Name    string
	Payload []byte
}

// maxSections bounds the declared section count so a corrupt header
// cannot drive a huge allocation before the size checks run.
const maxSections = 1024

// writeContainer emits the container: header, section table, payloads.
func writeContainer(w io.Writer, sections []Section) error {
	if len(sections) > maxSections {
		return fmt.Errorf("snapshot: %d sections exceeds the format limit %d", len(sections), maxSections)
	}
	if _, err := io.WriteString(w, Magic); err != nil {
		return err
	}
	var u32 [4]byte
	var u64 [8]byte
	var u16 [2]byte
	binary.LittleEndian.PutUint32(u32[:], FormatVersion)
	if _, err := w.Write(u32[:]); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(u32[:], uint32(len(sections)))
	if _, err := w.Write(u32[:]); err != nil {
		return err
	}
	for _, s := range sections {
		if len(s.Name) > 0xffff {
			return fmt.Errorf("snapshot: section name %q too long", s.Name[:32])
		}
		binary.LittleEndian.PutUint16(u16[:], uint16(len(s.Name)))
		if _, err := w.Write(u16[:]); err != nil {
			return err
		}
		if _, err := io.WriteString(w, s.Name); err != nil {
			return err
		}
		binary.LittleEndian.PutUint64(u64[:], uint64(len(s.Payload)))
		if _, err := w.Write(u64[:]); err != nil {
			return err
		}
		binary.LittleEndian.PutUint32(u32[:], crc32.ChecksumIEEE(s.Payload))
		if _, err := w.Write(u32[:]); err != nil {
			return err
		}
	}
	for _, s := range sections {
		if _, err := w.Write(s.Payload); err != nil {
			return err
		}
	}
	return nil
}

// parseContainer validates the header and every section checksum, and
// returns the sections with payloads aliasing data (zero-copy; callers
// decode before releasing the backing buffer).
func parseContainer(data []byte) ([]Section, error) {
	if len(data) < len(Magic)+8 {
		if len(data) >= len(Magic) && string(data[:len(Magic)]) != Magic {
			return nil, fmt.Errorf("%w: got %q", ErrBadMagic, data[:len(Magic)])
		}
		return nil, fmt.Errorf("%w: %d bytes is shorter than the header", ErrTruncated, len(data))
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("%w: got %q", ErrBadMagic, data[:len(Magic)])
	}
	off := len(Magic)
	version := binary.LittleEndian.Uint32(data[off:])
	if version != FormatVersion {
		return nil, fmt.Errorf("%w: file has version %d, this build reads %d", ErrVersion, version, FormatVersion)
	}
	count := binary.LittleEndian.Uint32(data[off+4:])
	if count > maxSections {
		return nil, fmt.Errorf("%w: header declares %d sections (limit %d)", ErrTruncated, count, maxSections)
	}
	off += 8

	type entry struct {
		name string
		size uint64
		crc  uint32
	}
	entries := make([]entry, 0, count)
	for i := uint32(0); i < count; i++ {
		if off+2 > len(data) {
			return nil, fmt.Errorf("%w: section table ends at entry %d", ErrTruncated, i)
		}
		nameLen := int(binary.LittleEndian.Uint16(data[off:]))
		off += 2
		if off+nameLen+12 > len(data) {
			return nil, fmt.Errorf("%w: section table ends at entry %d", ErrTruncated, i)
		}
		name := string(data[off : off+nameLen])
		off += nameLen
		size := binary.LittleEndian.Uint64(data[off:])
		crc := binary.LittleEndian.Uint32(data[off+8:])
		off += 12
		entries = append(entries, entry{name: name, size: size, crc: crc})
	}

	sections := make([]Section, 0, len(entries))
	for _, e := range entries {
		if e.size > uint64(len(data)-off) {
			return nil, fmt.Errorf("%w: section %q declares %d bytes but %d remain",
				ErrTruncated, e.name, e.size, len(data)-off)
		}
		payload := data[off : off+int(e.size)]
		off += int(e.size)
		if got := crc32.ChecksumIEEE(payload); got != e.crc {
			return nil, fmt.Errorf("%w: section %q has crc %08x, want %08x", ErrChecksum, e.name, got, e.crc)
		}
		sections = append(sections, Section{Name: e.name, Payload: payload})
	}
	if off != len(data) {
		return nil, fmt.Errorf("%w: %d bytes", ErrTrailingData, len(data)-off)
	}
	return sections, nil
}
