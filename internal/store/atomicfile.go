package store

import (
	"io"
	"os"
	"path/filepath"
)

// WriteFileAtomic writes one serialization to path so that a crash or a
// failed write never leaves a torn image there: the bytes go to a temp file
// in path's directory, are fsynced, and only then renamed over path, after
// which the directory entry is fsynced too. On any failure the temp file is
// removed and whatever was at path before stays untouched.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if err = write(f); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		// CreateTemp makes the file 0600; an index image is as public as
		// os.Create would have made it.
		err = os.Chmod(tmp, 0o644)
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
