package atomicfile

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type writerTo func(io.Writer) (int64, error)

func (f writerTo) WriteTo(w io.Writer) (int64, error) { return f(w) }

// TestWriteReplacesOrLeavesUntouched: a successful Write replaces the
// file; a fill that fails part-way leaves the previous content in place
// and no temp file behind.
func TestWriteReplacesOrLeavesUntouched(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	put := func(s string, fail error) error {
		return Write(path, writerTo(func(w io.Writer) (int64, error) {
			n, err := io.WriteString(w, s)
			if err == nil {
				err = fail
			}
			return int64(n), err
		}))
	}
	if err := put("one", nil); err != nil {
		t.Fatal(err)
	}
	if err := put("two", nil); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if err := put("thr", boom); !errors.Is(err, boom) {
		t.Fatalf("failed fill returned %v, want boom", err)
	}
	if b, err := os.ReadFile(path); err != nil || string(b) != "two" {
		t.Fatalf("after a failed write the file holds %q (%v), want the previous \"two\"", b, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("state dir holds %d entries after a failed write, want only the file", len(entries))
	}
	if err := Write(filepath.Join(dir, "missing", "f"), strings.NewReader("x")); err == nil {
		t.Error("write into a missing directory succeeded")
	}
}
