//go:build linux

package snapshot

import (
	"os"
	"syscall"
)

// readSnapshotFile maps the file read-only when the platform allows it,
// avoiding a full read-syscall copy of the artifact on the serving cold
// path; the section decoders (gob for meta and shard, the hand-rolled
// codecs for the rest) copy everything they keep, so the mapping is
// released as soon as loading finishes. Falls back to a plain read when
// mmap fails (e.g. special filesystems).
func readSnapshotFile(path string) (data []byte, cleanup func(), err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	size := fi.Size()
	if size == 0 {
		return nil, func() {}, nil
	}
	if int64(int(size)) == size {
		m, merr := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_PRIVATE)
		if merr == nil {
			return m, func() { _ = syscall.Munmap(m) }, nil
		}
	}
	data, err = os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	return data, func() {}, nil
}
