package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
)

// foldByPackage returns the share of CPU samples in the runtime/pprof
// profile at path whose leaf function belongs to each package (import
// path, e.g. "contiguitas/internal/mem"), and the profile's total CPU
// time in milliseconds. It reads the flat time per function from the Go
// toolchain's pprof; an inlined function counts as itself, not as the
// function it was inlined into.
func foldByPackage(path string) (map[string]float64, float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=0",
		"-nodefraction=0", "-edgefraction=0", "-unit=ms", "-symbolize=none", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	flat := map[string]float64{}
	var total float64
	rows := false
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !rows {
			// The table starts after its "flat flat% sum% cum cum%" header.
			rows = len(f) == 5 && f[0] == "flat" && f[4] == "cum%"
			continue
		}
		if len(f) < 6 {
			return nil, 0, fmt.Errorf("go tool pprof: unexpected row %q", sc.Text())
		}
		ms, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			return nil, 0, fmt.Errorf("go tool pprof: flat time %q: %v", f[0], err)
		}
		flat[packageOf(strings.Join(f[5:], " "))] += ms
		total += ms
	}
	if !rows {
		return nil, 0, fmt.Errorf("go tool pprof: no table in output")
	}
	shares := map[string]float64{}
	for k, v := range flat {
		if total > 0 {
			shares[k] = v / total
		}
	}
	return shares, total, nil
}

// profiled runs f under the CPU profiler (100 Hz), writing the profile
// into dir, and folds it by package.
func profiled(dir string, f func() error) (map[string]float64, error) {
	path := filepath.Join(dir, "cpu.pprof")
	if err := writeProfile(path, f); err != nil {
		return nil, err
	}
	shares, _, err := foldByPackage(path)
	return shares, err
}

// writeProfile runs f under the CPU profiler, writing the profile to
// path.
func writeProfile(path string, f func() error) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(out); err != nil {
		out.Close()
		return err
	}
	err = f()
	pprof.StopCPUProfile()
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	return err
}

// packageOf maps a Go symbol name to its package import path:
// "contiguitas/internal/mem.(*Buddy).Alloc" -> "contiguitas/internal/mem",
// "runtime.mallocgc" -> "runtime".
func packageOf(symbol string) string {
	slash := strings.LastIndex(symbol, "/")
	if dot := strings.Index(symbol[slash+1:], "."); dot >= 0 {
		return symbol[:slash+1+dot]
	}
	return symbol
}
