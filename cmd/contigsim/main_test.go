package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"contiguitas/internal/cli"
	"contiguitas/internal/kernel"
	"contiguitas/internal/snapshot"
)

// The refusals exit the process, so the test binary re-executes itself
// as the command (CONTIGSIM_TEST_MAIN set) and checks the child's exit
// code and stderr.
func TestMain(m *testing.M) {
	if os.Getenv("CONTIGSIM_TEST_MAIN") != "" {
		main()
		os.Exit(cli.CodeOK)
	}
	os.Exit(m.Run())
}

// TestExitCodes holds contigsim's -resume to the shared codes: a
// snapshot that fails its integrity check is a verification failure, a
// missing one a runtime error, and a checkpoint flag without -trace or
// a machine size kernel.New cannot boot a usage error. Every case is
// refused before any tick is simulated.
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	tampered := filepath.Join(dir, "tampered.snap")
	cfg := kernel.DefaultConfig(kernel.ModeLinux)
	cfg.MemBytes = 32 << 20
	cp := &snapshot.Checkpointer{Path: tampered}
	if _, err := cp.Take(0, kernel.New(cfg), nil, nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(tampered)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(tampered, data, 0o644); err != nil {
		t.Fatal(err)
	}
	noOut := []string{"-trace-out", "", "-metrics-out", ""}
	for _, tc := range []struct {
		args []string
		code int
		want string // in stderr
	}{
		{append([]string{"-trace", "-resume", tampered}, noOut...), cli.CodeVerify, "integrity check failed"},
		{append([]string{"-trace", "-resume", filepath.Join(dir, "missing.snap")}, noOut...), cli.CodeRuntime, "no such file"},
		{[]string{"-exp", "tab1", "-resume", tampered}, cli.CodeUsage, "-resume needs -trace"},
		{[]string{"-exp", "tab1", "-checkpoint-every", "5"}, cli.CodeUsage, "-checkpoint-every needs -trace"},
		{[]string{"-exp", "fig10", "-mem", "0"}, cli.CodeUsage, "-mem 0: zero memory size"},
		{append([]string{"-trace", "-mem", "0"}, noOut...), cli.CodeUsage, "-mem 0: zero memory size"},
	} {
		cmd := exec.Command(os.Args[0], tc.args...)
		cmd.Env = append(os.Environ(), "CONTIGSIM_TEST_MAIN=1")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		code := 0
		if ee, ok := err.(*exec.ExitError); ok {
			code = ee.ExitCode()
		} else if err != nil {
			t.Fatalf("%v: re-exec failed: %v", tc.args, err)
		}
		if code != tc.code || !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%v: exit %d, stderr %q; want exit %d and %q",
				tc.args, code, stderr.String(), tc.code, tc.want)
		}
	}
}

// TestProfileSurvivesFailedRun: a command that fails after its
// profiles started still completes them. The -resume below exits 3
// after the CPU profile began; the profile must be a complete pprof
// file (a gzip stream of well-formed protobuf with at least one
// sample type), not the empty file os.Create left.
func TestProfileSurvivesFailedRun(t *testing.T) {
	dir := t.TempDir()
	prof := filepath.Join(dir, "p.prof")
	cmd := exec.Command(os.Args[0], "-cpuprofile", prof, "-trace", "-resume", filepath.Join(dir, "missing.snap"),
		"-trace-out", "", "-metrics-out", "")
	cmd.Env = append(os.Environ(), "CONTIGSIM_TEST_MAIN=1")
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != cli.CodeRuntime {
		t.Fatalf("exit %v, want %d", err, cli.CodeRuntime)
	}
	data, err := os.ReadFile(prof)
	if err != nil || len(data) == 0 {
		t.Fatalf("profile: %d bytes, %v", len(data), err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if sampleTypes, err := protoFields(raw, 1); err != nil || sampleTypes == 0 {
		t.Fatalf("profile body: %d sample types, %v", sampleTypes, err)
	}
}

// protoFields walks a protobuf message's top-level fields and counts
// those numbered field, refusing a malformed wire encoding.
func protoFields(b []byte, field uint64) (int, error) {
	n := 0
	for len(b) > 0 {
		key, k := binary.Uvarint(b)
		if k <= 0 {
			return n, fmt.Errorf("bad field key")
		}
		b = b[k:]
		if key>>3 == field {
			n++
		}
		switch key & 7 {
		case 0: // varint
			if _, k = binary.Uvarint(b); k <= 0 {
				return n, fmt.Errorf("bad varint")
			}
			b = b[k:]
		case 1, 5: // fixed64, fixed32
			size := 8
			if key&7 == 5 {
				size = 4
			}
			if len(b) < size {
				return n, fmt.Errorf("short fixed field")
			}
			b = b[size:]
		case 2: // length-delimited
			l, k := binary.Uvarint(b)
			if k <= 0 || l > uint64(len(b)-k) {
				return n, fmt.Errorf("bad length")
			}
			b = b[k+int(l):]
		default:
			return n, fmt.Errorf("wire type %d", key&7)
		}
	}
	return n, nil
}
