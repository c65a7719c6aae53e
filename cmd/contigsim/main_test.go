package main

import (
	"bytes"
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
// missing one a runtime error, and a checkpoint flag without -trace a
// usage error. Every case is refused before any tick is simulated.
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
