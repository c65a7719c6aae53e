package cli

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"

	"contiguitas/internal/obsv"
)

// Observe is the observability flag group the commands share: -serve
// on every command that declares it, plus -cpuprofile and -memprofile
// on the ones that profile (so hot-path regressions can be diagnosed
// with `go tool pprof` without editing the command).
type Observe struct {
	serve, cpuProfile, memProfile string
}

// ObserveFlags registers -serve on fs, and -cpuprofile/-memprofile too
// when profiling is set.
func ObserveFlags(fs *flag.FlagSet, profiling bool) *Observe {
	o := &Observe{}
	fs.StringVar(&o.serve, "serve", "", "serve the live observability HTTP plane on this address (e.g. :8080 or :0; empty disables)")
	if profiling {
		fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
		fs.StringVar(&o.memProfile, "memprofile", "", "write a heap profile to this file on exit")
	}
	return o
}

// Start begins the CPU profile and mounts the -serve plane (a nil
// handle when the flag is empty); a setup failure exits CodeRuntime.
// The returned stop closes the plane, then completes the profiles; it
// runs once, either when the caller runs it (normally via defer) or
// when the command exits through Exit, Usagef, Verifyf, Runtimef or
// Check.
func (o *Observe) Start() (*obsv.Handle, func()) {
	var h *obsv.Handle
	var cpuFile *os.File
	stop := sync.OnceFunc(func() {
		atExit.Store(nil)
		h.Close()
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if o.memProfile != "" {
			writeHeapProfile(o.memProfile)
		}
	})
	atExit.Store(&stop)
	if o.cpuProfile != "" {
		f, err := os.Create(o.cpuProfile)
		if err != nil {
			Runtimef("prof: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			Runtimef("prof: %v", err)
		}
		cpuFile = f
	}
	var err error
	h, err = obsv.MountCLI(o.serve)
	Check(err)
	return h, stop
}

func writeHeapProfile(path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "prof: %v\n", err)
		return
	}
	defer f.Close()
	runtime.GC() // materialise final live-heap state
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintf(os.Stderr, "prof: %v\n", err)
	}
}
