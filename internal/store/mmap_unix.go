//go:build linux || darwin

package store

import (
	"fmt"
	"os"
	"syscall"
)

// mmapFile maps [0, size) of f read-only and returns the mapping plus its
// unmap function. The mapping outlives the file descriptor, but Close keeps
// both until the store is done with them.
func mmapFile(f *os.File, size int64) ([]byte, func() error, error) {
	if size <= 0 || int64(int(size)) != size {
		return nil, nil, fmt.Errorf("store: cannot map %d bytes", size)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, nil, fmt.Errorf("store: mmap: %w", err)
	}
	return data, func() error { return syscall.Munmap(data) }, nil
}
