package vfs

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// TestOSReadFileMatchesOS holds the lean read to os.ReadFile: the same
// bytes for every size class the read loop distinguishes (empty, one
// byte, around the 512-byte minimum buffer, 1 MiB) and a size-0 /proc
// file, and the same *fs.PathError for a missing path and a directory.
func TestOSReadFileMatchesOS(t *testing.T) {
	dir := t.TempDir()
	for _, n := range []int{0, 1, 511, 512, 513, 1 << 20} {
		path := filepath.Join(dir, "f"+strconv.Itoa(n))
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(i*7 + n)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		want, werr := os.ReadFile(path)
		got, err := OS{}.ReadFile(path)
		if err != nil || werr != nil || !bytes.Equal(got, want) || got == nil {
			t.Errorf("%d-byte file: got %d bytes (%v), os.ReadFile %d bytes (%v)", n, len(got), err, len(want), werr)
		}
	}
	if runtime.GOOS == "linux" {
		want, _ := os.ReadFile("/proc/self/cmdline")
		if got, err := (OS{}).ReadFile("/proc/self/cmdline"); err != nil || !bytes.Equal(got, want) {
			t.Errorf("/proc/self/cmdline: got %q (%v), want %q", got, err, want)
		}
	}

	for _, tc := range []struct {
		name, path string
		op         string
	}{
		{"missing path", filepath.Join(dir, "missing"), "open"},
		{"directory", dir, "read"},
	} {
		_, werr := os.ReadFile(tc.path)
		_, err := OS{}.ReadFile(tc.path)
		var pe, wpe *fs.PathError
		if !errors.As(err, &pe) || !errors.As(werr, &wpe) {
			t.Fatalf("%s: errors %v and %v, want *fs.PathError from both", tc.name, err, werr)
		}
		if pe.Op != tc.op || pe.Op != wpe.Op || pe.Path != wpe.Path || pe.Err != wpe.Err {
			t.Errorf("%s: got %#v, os.ReadFile gave %#v", tc.name, pe, wpe)
		}
	}
	if _, err := (OS{}).ReadFile(filepath.Join(dir, "missing")); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("missing path: %v does not match fs.ErrNotExist", err)
	}
}

// TestOSReadFileOneRead counts read system calls in the process-wide
// Linux I/O accounting: a whole-file read of a regular file costs one,
// where os.ReadFile spends two (the second only to see EOF).
func TestOSReadFileOneRead(t *testing.T) {
	syscr := func() int {
		data, err := os.ReadFile("/proc/self/io")
		if err != nil {
			t.Skipf("no per-process I/O accounting: %v", err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			if v, ok := strings.CutPrefix(line, "syscr: "); ok {
				n, err := strconv.Atoi(v)
				if err != nil {
					t.Fatal(err)
				}
				return n
			}
		}
		t.Skip("no syscr line in /proc/self/io")
		return 0
	}
	path := filepath.Join(t.TempDir(), "entry")
	if err := os.WriteFile(path, bytes.Repeat([]byte{0xa5}, 300), 0o644); err != nil {
		t.Fatal(err)
	}
	const reads = 200
	before := syscr()
	for i := 0; i < reads; i++ {
		if _, err := (OS{}).ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}
	// Reading the counter itself costs a few reads of its own.
	if got := syscr() - before; got > reads+8 {
		t.Fatalf("%d whole-file reads cost %d read system calls, want about %d", reads, got, reads)
	}
}
