package cli

import (
	"flag"
	"io"
	"os"
	"os/exec"
	"testing"
)

// The exit paths call os.Exit, so they are exercised by re-executing the
// test binary with CLI_TEST_MODE set and asserting on the child's code.
func TestMain(m *testing.M) {
	switch os.Getenv("CLI_TEST_MODE") {
	case "":
		os.Exit(m.Run())
	case "parse":
		fs := flag.NewFlagSet("fake", flag.ExitOnError)
		fs.SetOutput(io.Discard)
		fs.Int("n", 1, "a flag")
		Parse(fs, os.Args[1:])
		os.Exit(CodeOK)
	case "verify":
		Verifyf("invariant broken")
	case "runtime":
		Check(os.ErrNotExist)
	case "usage-after-start":
		fs := flag.NewFlagSet("fake", flag.ExitOnError)
		o := ObserveFlags(fs, true)
		Parse(fs, os.Args[1:])
		_, stop := o.Start()
		defer stop() // skipped by the exit below; Usagef must run it
		Usagef("bad flag combination")
	}
}

func rerun(t *testing.T, mode string, args ...string) int {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "CLI_TEST_MODE="+mode)
	err := cmd.Run()
	if err == nil {
		return 0
	}
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode()
	}
	t.Fatalf("re-exec failed: %v", err)
	return -1
}

func TestParseExitCodes(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want int
	}{
		{"clean parse", []string{"-n", "2"}, CodeOK},
		{"help is success", []string{"-h"}, CodeOK},
		{"unknown flag", []string{"-bogus"}, CodeUsage},
		{"bad flag value", []string{"-n", "owl"}, CodeUsage},
		{"positional argument", []string{"stray"}, CodeUsage},
	} {
		if got := rerun(t, "parse", tc.args...); got != tc.want {
			t.Errorf("%s: exit %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestVerifyAndRuntimeCodes(t *testing.T) {
	if got := rerun(t, "verify"); got != CodeVerify {
		t.Errorf("Verifyf exit %d, want %d", got, CodeVerify)
	}
	if got := rerun(t, "runtime"); got != CodeRuntime {
		t.Errorf("Check(err) exit %d, want %d", got, CodeRuntime)
	}
}

// TestExitRunsStop: an exit after Observe.Start completes the profiles
// the deferred stop would have, so a failed run keeps its profile.
func TestExitRunsStop(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := dir+"/cpu.prof", dir+"/mem.prof"
	if got := rerun(t, "usage-after-start", "-cpuprofile", cpu, "-memprofile", mem); got != CodeUsage {
		t.Fatalf("exit %d, want %d", got, CodeUsage)
	}
	for _, p := range []string{cpu, mem} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Fatalf("%s not completed by the exit: %v", p, err)
		}
	}
}

// Parse must also downgrade an ExitOnError FlagSet to ContinueOnError so
// the flag package cannot exit with its own hardwired code 2 — code 2 is
// reserved for verification failures.
func TestParseSucceedsInProcess(t *testing.T) {
	fs := flag.NewFlagSet("fake", flag.ExitOnError)
	fs.SetOutput(io.Discard)
	n := fs.Int("n", 1, "a flag")
	Parse(fs, []string{"-n", "7"})
	if *n != 7 {
		t.Fatalf("parsed n = %d, want 7", *n)
	}
}

// ObserveFlags registers -serve everywhere and the profile flags only
// when asked; Start with -serve unset mounts nothing, and its stop
// completes both profiles.
func TestObserveFlags(t *testing.T) {
	for _, profiling := range []bool{false, true} {
		fs := flag.NewFlagSet("fake", flag.ContinueOnError)
		o := ObserveFlags(fs, profiling)
		for _, name := range []string{"cpuprofile", "memprofile"} {
			if (fs.Lookup(name) != nil) != profiling {
				t.Fatalf("profiling=%v: -%s registered=%v", profiling, name, !profiling)
			}
		}
		if fs.Lookup("serve") == nil {
			t.Fatal("-serve not registered")
		}
		var args, profiles []string
		if profiling {
			dir := t.TempDir()
			profiles = []string{dir + "/cpu.prof", dir + "/mem.prof"}
			args = []string{"-cpuprofile", profiles[0], "-memprofile", profiles[1]}
		}
		Parse(fs, args)
		h, stop := o.Start()
		if h != nil {
			t.Fatal("a plane was mounted without -serve")
		}
		stop()
		for _, p := range profiles {
			if st, err := os.Stat(p); err != nil || st.Size() == 0 {
				t.Fatalf("%s not written: %v", p, err)
			}
		}
	}
}
