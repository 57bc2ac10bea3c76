package store

import (
	"bytes"
	"io"
	"os"
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

// OpenMapped opens a paged store file through a read-only memory mapping:
// warm pages decode straight from the mapping with no syscall and no
// gather-buffer copy. On platforms without mmap support (or when the map
// fails) it degrades to a plain ReadAt-backed OpenFile — same semantics,
// page reads go through syscalls again. Close unmaps and releases the file.
func OpenMapped(path string, opts OpenOptions) (*Store, error) {
	data, closer, err := MapFile(path)
	if err != nil {
		return OpenFile(path, opts)
	}
	opts.Mapped = data
	s, err := Open(bytes.NewReader(data), int64(len(data)), opts)
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
