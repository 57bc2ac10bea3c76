package store

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteFileAtomicKeepsOldImage: a write that fails midway
// must leave the image already at the path byte-identical and no temp file
// behind; a successful write replaces it whole.
func TestWriteFileAtomicKeepsOldImage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ix.silcpg")
	old := bytes.Repeat([]byte("old image "), 1000)
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}

	errTorn := errors.New("writer failed midway")
	err := WriteFileAtomic(path, func(w io.Writer) error {
		w.Write([]byte("half of a new im")) // the torn half; errTorn is the failure under test
		return errTorn
	})
	if !errors.Is(err, errTorn) {
		t.Fatalf("WriteFileAtomic = %v, want the writer's error", err)
	}
	got, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(got, old) {
		t.Fatalf("failed write disturbed the existing image (err %v, %d bytes)", err, len(got))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "ix.silcpg" {
		t.Fatalf("failed write left files behind: %v", entries)
	}

	fresh := []byte("a whole new image")
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write(fresh)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, fresh) {
		t.Fatalf("successful write left %q", got)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("successful write left temp files behind: %v", entries)
	}
}
