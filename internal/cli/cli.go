// Package cli unifies process exit semantics across the repository's
// commands (contigsim, contigchaos, contigtrace, fleetscan, migbench).
// Every command distinguishes the same four outcomes:
//
//	0 (CodeOK)      success — including -h/-help
//	1 (CodeUsage)   bad invocation: unknown flag, bad flag value,
//	                unexpected positional argument
//	2 (CodeVerify)  a verification or invariant failure: tampered
//	                snapshot, diverged replay hash, failed soak gate —
//	                the command ran, and what it checked is wrong
//	3 (CodeRuntime) an operational error: unreadable file, failed
//	                write, profiler setup
//
// CI and scripts key off these codes: 2 is the "the property we gate on
// does not hold" signal, distinct from both misuse and I/O flakes.
//
// The package also holds the flags the commands share for watching a
// run: -serve and the profiles (ObserveFlags), and the one traced-run
// path every command that steps an instrumented kernel goes through:
// its flag group, resume, instrumentation, tick loop and export
// (TraceRunFlags, Run).
package cli

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sync/atomic"
)

// Exit codes shared by every command.
const (
	CodeOK      = 0
	CodeUsage   = 1
	CodeVerify  = 2
	CodeRuntime = 3
)

// Parse parses args (typically os.Args[1:]) with fs, normalising the
// flag package's exit behaviour: -h/-help exits CodeOK, any parse error
// exits CodeUsage (the flag package has already printed the error and
// usage text). On success, any leftover positional arguments are
// rejected as usage errors — no command in this repository takes them.
func Parse(fs *flag.FlagSet, args []string) {
	fs.Init(fs.Name(), flag.ContinueOnError)
	err := fs.Parse(args)
	switch {
	case errors.Is(err, flag.ErrHelp):
		Exit(CodeOK)
	case err != nil:
		Exit(CodeUsage)
	}
	if fs.NArg() > 0 {
		Usagef("%s: unexpected argument %q", fs.Name(), fs.Arg(0))
	}
}

// atExit holds the stop of the running Observe.Start, if any.
var atExit atomic.Pointer[func()]

// Exit runs the stop Observe.Start returned, if it has not run yet, and
// exits with code: a command that fails after Start still completes its
// profiles and closes its -serve plane. Every exit in this package goes
// through it.
func Exit(code int) {
	if stop := atExit.Swap(nil); stop != nil {
		(*stop)()
	}
	os.Exit(code)
}

// Usagef reports a bad invocation and exits CodeUsage.
func Usagef(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	Exit(CodeUsage)
}

// Verifyf reports a verification/invariant failure and exits CodeVerify.
func Verifyf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	Exit(CodeVerify)
}

// Runtimef reports an operational error and exits CodeRuntime.
func Runtimef(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	Exit(CodeRuntime)
}

// Check exits CodeRuntime if err is non-nil; no-op otherwise.
func Check(err error) {
	if err != nil {
		Runtimef("%v", err)
	}
}
