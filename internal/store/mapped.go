package store

import (
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/debug"
)

// MapFile opens path through a read-only memory mapping and returns the
// mapped bytes plus the closer that unmaps and releases the file. It fails
// on platforms without mmap support (and on empty files); callers fall back
// to ReadAt-backed opens then.
func MapFile(path string) ([]byte, io.Closer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	data, unmap, err := mmapFile(f, info.Size())
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return data, &mappedCloser{f: f, unmap: unmap}, nil
}

// Mapping is an image in memory — usually a read-only mapping of its file
// (MapFile) — read as an io.ReaderAt: ReadAt is a copy, not a syscall. A
// store opened over a Mapping fills each missed page frame by copying the
// page out of it into a recycled private frame, then checks the frame's
// CRC; frames, hits and the decoder are those of any ReaderAt-backed store.
// If the file shrinks under the mapping, touching a page past its new end
// faults: ReadAt turns the fault into an error wrapping ErrCorrupt instead
// of a SIGBUS that kills the process.
type Mapping []byte

// ReadAt copies len(p) bytes from offset off under the fault guard.
func (m Mapping) ReadAt(p []byte, off int64) (n int, err error) {
	if off < 0 {
		return 0, errors.New("store: negative offset")
	}
	if off >= int64(len(m)) {
		return 0, io.EOF
	}
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer recoverFault(&err)
	if n = copy(p, m[off:]); n < len(p) {
		err = io.EOF
	}
	return n, err
}

// recoverFault, deferred behind debug.SetPanicOnFault(true) in ReadAt, turns
// a memory fault of the copy — a mapped page whose file was truncated under
// it — into *err wrapping ErrCorrupt. Any other panic goes on.
func recoverFault(err *error) {
	r := recover()
	if r == nil {
		return
	}
	if f, ok := r.(interface{ Addr() uintptr }); ok {
		*err = corrupt(fmt.Errorf("store: memory fault at %#x reading the mapped image: %v", f.Addr(), r))
		return
	}
	panic(r)
}

// OpenMapped opens a paged store file through a read-only memory mapping:
// MapFile, then Open over the Mapping, so every missed page is copied out
// of the mapping into a private frame and CRC-checked, as in any store. It
// exists for the benchmark's store.tree_cold_mmap_us rung, which times that
// fill. Where the file cannot be mapped it degrades to OpenFile. Close
// unmaps and releases the file.
func OpenMapped(path string, opts OpenOptions) (*Store, error) {
	data, closer, err := MapFile(path)
	if err != nil {
		return OpenFile(path, opts)
	}
	s, err := Open(Mapping(data), int64(len(data)), opts)
	if err != nil {
		closer.Close()
		return nil, err
	}
	s.closer = closer
	return s, nil
}

// mappedCloser unmaps then closes the file behind a mapped store.
type mappedCloser struct {
	f     *os.File
	unmap func() error
}

func (mc *mappedCloser) Close() error {
	err := mc.unmap()
	if cerr := mc.f.Close(); err == nil {
		err = cerr
	}
	return err
}
