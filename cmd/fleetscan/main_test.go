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
// as the command (FLEETSCAN_TEST_MAIN set) and checks the child's exit
// code and stderr.
func TestMain(m *testing.M) {
	if os.Getenv("FLEETSCAN_TEST_MAIN") != "" {
		main()
		os.Exit(cli.CodeOK)
	}
	os.Exit(m.Run())
}

// TestExitCodes holds fleetscan's refusals to the usage code: specs the
// campaign service refuses (with the service's reason), two modes at
// once (naming both), a -resume with nothing to resume, and
// -checkpoint-every without -trace. A -trace -resume snapshot that fails
// its integrity check is a verification failure. Every case is refused
// before any server is simulated.
func TestExitCodes(t *testing.T) {
	empty := t.TempDir()
	tampered := filepath.Join(t.TempDir(), "tampered.snap")
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
	// tiny keeps a regression that runs a conflicting mode fast.
	tiny := []string{"-servers", "4", "-mem", "32", "-sweep-mems", "32", "-sweep-designs", "linux",
		"-sweep-jitters", "0", "-min-uptime", "1", "-max-uptime", "2", "-trace-out", "", "-metrics-out", ""}
	for _, tc := range []struct {
		args []string
		want string // in stderr
		code int
	}{
		{[]string{"-design", "contiguitas", "-mem", "16"}, "invalid campaign spec: design contiguitas needs an unmovable region", cli.CodeUsage},
		{[]string{"-mem", "3"}, "invalid campaign spec: mem 3 MiB out of range", cli.CodeUsage},
		{[]string{"-servers", "0"}, "invalid campaign spec: servers 0 out of range", cli.CodeUsage},
		{[]string{"-min-uptime", "50", "-max-uptime", "10"}, "invalid campaign spec: ticks_min 50 > ticks_max 10", cli.CodeUsage},
		{[]string{"-sweep", "-sweep-mems", "33"}, "invalid campaign spec: mem 33 MiB is not a whole number of 2 MiB pageblocks", cli.CodeUsage},
		{[]string{"-soak", "-mem", "33"}, "invalid campaign spec: mem 33 MiB is not a whole number of 2 MiB pageblocks", cli.CodeUsage},
		{[]string{"-sweep", "-servers", "4", "-sweep-mems", "32", "-sweep-designs", "linux,bsd"}, `invalid campaign spec: unknown design "bsd"`, cli.CodeUsage},
		{[]string{"-design", "bogus"}, `unknown design "bogus"`, cli.CodeUsage},
		{append([]string{"-sweep", "-design", "bogus"}, tiny...), `unknown design "bogus"`, cli.CodeUsage},
		{append([]string{"-sweep", "-soak"}, tiny...), "-sweep and -soak cannot be combined", cli.CodeUsage},
		{append([]string{"-sweep", "-trace"}, tiny...), "-sweep and -trace cannot be combined", cli.CodeUsage},
		{append([]string{"-soak", "-trace"}, tiny...), "-soak and -trace cannot be combined", cli.CodeUsage},
		{[]string{"-soak", "-servers", "8", "-mem", "64", "-resume", empty}, "fleetscan: resume:", cli.CodeUsage},
		{[]string{"-servers", "8", "-mem", "64", "-resume", empty}, "-resume needs -soak", cli.CodeUsage},
		{[]string{"-servers", "8", "-mem", "64", "-checkpoint-every", "5"}, "-checkpoint-every needs -trace", cli.CodeUsage},
		{[]string{"-soak", "-servers", "8", "-mem", "64", "-checkpoint-every", "5"}, "-checkpoint-every needs -trace", cli.CodeUsage},
		{append([]string{"-trace", "-resume", tampered}, tiny...), "integrity check failed", cli.CodeVerify},
	} {
		cmd := exec.Command(os.Args[0], tc.args...)
		cmd.Env = append(os.Environ(), "FLEETSCAN_TEST_MAIN=1")
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
