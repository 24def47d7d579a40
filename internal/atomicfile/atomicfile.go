// Package atomicfile is the one durable-replace primitive every state
// writer (store checkpoints, the forwarder's write-ahead file, persisted
// plans) goes through, and so the one seam a crash-point injector needs.
package atomicfile

import (
	"bufio"
	"io"
	"os"
	"path/filepath"
)

// Write replaces the file at path with what src writes: temp file in
// the same directory, flush, fsync, close, rename. Readers and crash
// recovery see the old complete file or the new complete file, never a
// partial write; a failure at any step leaves path untouched.
func Write(path string, src io.WriterTo) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	defer os.Remove(tmp) // no-op after a successful rename
	bw := bufio.NewWriter(f)
	if _, err := src.WriteTo(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
