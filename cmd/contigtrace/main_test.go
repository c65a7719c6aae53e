package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"contiguitas/internal/cli"
)

// The refusals exit the process, so the test binary re-executes itself
// as the command (CONTIGTRACE_TEST_MAIN set) and checks the child's
// exit code and output.
func TestMain(m *testing.M) {
	if os.Getenv("CONTIGTRACE_TEST_MAIN") != "" {
		main()
		os.Exit(cli.CodeOK)
	}
	os.Exit(m.Run())
}

// contigtrace runs the command and returns its exit code, stdout and
// stderr.
func contigtrace(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "CONTIGTRACE_TEST_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode(), stdout.String(), stderr.String()
	}
	if err != nil {
		t.Fatalf("%v: re-exec failed: %v", args, err)
	}
	return 0, stdout.String(), stderr.String()
}

// TestExitCodes holds contigtrace to the shared codes: flags it would
// ignore and machines kernel.New cannot boot are usage errors, a trace
// that is cut short, edited or not a trace is a verification failure
// refused before anything replays, and a missing one a runtime error.
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "t.bin")
	if code, _, stderr := contigtrace(t, "-record", good, "-mem", "32", "-ticks", "5"); code != cli.CodeOK {
		t.Fatalf("record: exit %d: %s", code, stderr)
	}
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	damaged := func(name string, edit func(b []byte) []byte) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, edit(bytes.Clone(data)), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	half := damaged("half.bin", func(b []byte) []byte { return b[:len(b)/2] })
	flip := damaged("flip.bin", func(b []byte) []byte { b[len(b)/2] ^= 1; return b })
	magic := damaged("magic.bin", func(b []byte) []byte { copy(b, "CTGSNAP"); return b })
	out := filepath.Join(dir, "y.json")
	for _, tc := range []struct {
		args []string
		code int
		want string // in stderr
	}{
		{[]string{"-replay", good, "-mem", "32"}, cli.CodeOK, ""},
		{[]string{"-record", filepath.Join(dir, "a.bin"), "-replay", good}, cli.CodeUsage, "-record and -replay cannot be combined"},
		{[]string{"-record", filepath.Join(dir, "a.bin"), "-trace-out", out}, cli.CodeUsage, "-trace-out and -metrics-out need -replay"},
		{[]string{"-record", filepath.Join(dir, "a.bin"), "-metrics-out", out}, cli.CodeUsage, "-trace-out and -metrics-out need -replay"},
		{[]string{"-record", filepath.Join(dir, "a.bin"), "-mem", "1"}, cli.CodeUsage, "not a whole number of 2 MiB pageblocks"},
		{[]string{"-record", filepath.Join(dir, "a.bin"), "-mem", "16"}, cli.CodeUsage, "needs an unmovable region"},
		{[]string{"-replay", half, "-mem", "32"}, cli.CodeVerify, "digest mismatch"},
		{[]string{"-replay", flip, "-mem", "32"}, cli.CodeVerify, "digest mismatch"},
		{[]string{"-replay", magic, "-mem", "32"}, cli.CodeVerify, "bad magic"},
		{[]string{"-replay", filepath.Join(dir, "missing.bin"), "-mem", "32"}, cli.CodeRuntime, "no such file"},
	} {
		code, stdout, stderr := contigtrace(t, tc.args...)
		if code != tc.code || !strings.Contains(stderr, tc.want) {
			t.Errorf("%v: exit %d, stderr %q; want exit %d and %q", tc.args, code, stderr, tc.code, tc.want)
		}
		if code != cli.CodeOK && stdout != "" {
			t.Errorf("%v: a refused run printed %q", tc.args, stdout)
		}
	}
	for _, path := range []string{filepath.Join(dir, "a.bin"), out} {
		if _, err := os.Stat(path); err == nil {
			t.Errorf("a refused run wrote %s", path)
		}
	}
}
