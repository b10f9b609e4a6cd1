package atomicfile

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// onlyEntry fails unless dir holds exactly the one file name.
func onlyEntry(t *testing.T, dir, name string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != name {
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		t.Fatalf("directory holds %v, want only %s", names, name)
	}
}

func TestWriteFileReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "db.qd")
	if err := os.WriteFile(path, []byte("old archive"), 0o600); err != nil {
		t.Fatal(err)
	}
	err := WriteFile(path, func(w io.Writer) error {
		_, err := w.Write([]byte("new archive"))
		return err
	})
	if err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "new archive" {
		t.Fatalf("contents %q, want %q", got, "new archive")
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode().Perm() != 0o600 {
		t.Errorf("mode %v, want the replaced file's 0600", fi.Mode().Perm())
	}
	onlyEntry(t, dir, "db.qd")
}

// TestWriteFileFailureKeepsOld: a writer that fails midway leaves the old
// file byte-identical and no temporary file behind.
func TestWriteFileFailureKeepsOld(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "db.qd")
	old := bytes.Repeat([]byte("previous archive "), 100)
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("encode failed")
	err := WriteFile(path, func(w io.Writer) error {
		if _, err := w.Write([]byte("partial")); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the writer's error", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, old) {
		t.Fatal("failed write changed the previous archive")
	}
	onlyEntry(t, dir, "db.qd")
}

// TestWriteFileNew creates a file that did not exist.
func TestWriteFileNew(t *testing.T) {
	dir := t.TempDir()
	if err := WriteFile(filepath.Join(dir, "fresh.qd"), func(w io.Writer) error {
		_, err := w.Write([]byte("x"))
		return err
	}); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	fi, err := os.Stat(filepath.Join(dir, "fresh.qd"))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode().Perm() != 0o644 {
		t.Errorf("mode %v, want 0644", fi.Mode().Perm())
	}
	onlyEntry(t, dir, "fresh.qd")
}
