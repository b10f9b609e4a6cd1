// Package atomicfile replaces a file's contents all at once, so a failed
// encode or a crash mid-write never destroys the previous version.
package atomicfile

import (
	"io"
	"os"
	"path/filepath"
)

// WriteFile writes path through write without ever exposing a partial file:
// the bytes go to a temporary file in path's directory, which is synced,
// closed and renamed over path, and the directory is then synced so the
// rename itself survives a crash. The new file keeps the mode of the one it
// replaces (0644 when path is new). If write or any later step fails, the
// temporary file is removed and path keeps its previous contents.
func WriteFile(path string, write func(io.Writer) error) (err error) {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	mode := os.FileMode(0o644)
	if fi, statErr := os.Stat(path); statErr == nil {
		mode = fi.Mode().Perm()
	}
	f, err := os.CreateTemp(dir, "."+base+".tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(f.Name())
		}
	}()
	if err = write(f); err != nil {
		return err
	}
	if err = f.Chmod(mode); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	if err = os.Rename(f.Name(), path); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
