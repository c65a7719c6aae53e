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
// as the command (CONTIGCHAOS_TEST_MAIN set) and checks the child's
// exit code and output.
func TestMain(m *testing.M) {
	if os.Getenv("CONTIGCHAOS_TEST_MAIN") != "" {
		main()
		os.Exit(cli.CodeOK)
	}
	os.Exit(m.Run())
}

// TestKillResumeRefusesIgnoredFlags: -kill-resume runs its own soaks
// from tick 0 and traces none of them, so -resume, -trace, -trace-out
// and -metrics-out are usage errors there rather than silently
// ignored, as is a machine size kernel.New cannot boot. The same small
// experiment without them passes.
func TestKillResumeRefusesIgnoredFlags(t *testing.T) {
	dir := t.TempDir()
	small := []string{"-mem", "64", "-ticks", "60", "-recovery", "10", "-kill-resume",
		"-checkpoint-every", "20", "-kill-at", "40", "-checkpoint-out", filepath.Join(dir, "k.snap")}
	for _, tc := range []struct {
		extra []string
		code  int
		want  string // in stdout+stderr
	}{
		{nil, cli.CodeOK, "PASS: resumed state hash"},
		{[]string{"-resume", filepath.Join(dir, "missing.snap")}, cli.CodeUsage, "-resume cannot be combined with -kill-resume"},
		{[]string{"-trace"}, cli.CodeUsage, "-trace cannot be combined with -kill-resume"},
		{[]string{"-trace-out", filepath.Join(dir, "x.json")}, cli.CodeUsage, "-trace-out cannot be combined with -kill-resume"},
		{[]string{"-metrics-out", filepath.Join(dir, "m.jsonl")}, cli.CodeUsage, "-metrics-out cannot be combined with -kill-resume"},
		{[]string{"-mem", "3"}, cli.CodeUsage, "-mem 3: memory size of 3072 KiB is not a whole number of 2 MiB pageblocks"},
	} {
		args := append(append([]string(nil), small...), tc.extra...)
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "CONTIGCHAOS_TEST_MAIN=1")
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &out
		err := cmd.Run()
		code := 0
		if ee, ok := err.(*exec.ExitError); ok {
			code = ee.ExitCode()
		} else if err != nil {
			t.Fatalf("%v: re-exec failed: %v", tc.extra, err)
		}
		if code != tc.code || !strings.Contains(out.String(), tc.want) {
			t.Errorf("%v: exit %d, output %q; want exit %d and %q", tc.extra, code, out.String(), tc.code, tc.want)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "x.json")); err == nil {
		t.Error("a refused run wrote its trace")
	}
}
