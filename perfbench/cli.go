package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"contiguitas/internal/fleet"
	"contiguitas/internal/resultcache"
	"contiguitas/internal/service"
)

// Timed set-ups per run for the CLI workloads; setup_s is their median.
const cliSetups = 3

// execResult is one finished CLI run.
type execResult struct {
	stdout  []byte
	took    time.Duration
	maxRSS  float64 // MiB
	exitErr error
}

// runCLI execs bin with args and waits for it; the time runs from exec
// until exit.
func runCLI(bin string, args ...string) execResult {
	cmd := exec.Command(bin, args...)
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	t0 := time.Now()
	err := cmd.Run()
	r := execResult{stdout: out.Bytes(), took: time.Since(t0)}
	if err != nil {
		r.exitErr = fmt.Errorf("%s: %v: %s", filepath.Base(bin), err, strings.TrimSpace(errb.String()))
	}
	if cmd.ProcessState == nil {
		return r
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.maxRSS = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return r
}

// runWarmSweep fills the result cache with cold sweeps during set-up,
// then runs warm sweeps over it in a closed loop, comparing every
// sweep's canonical -sweep-out file with the cold fill's.
func runWarmSweep(env *env) (*result, error) {
	bin := filepath.Join(env.bin, "fleetscan")
	sp := warmSweepSpec(env.seed)
	cells := len(sp.Cells())
	entries := cells * sp.Servers

	var setups []float64
	var fill []byte
	for i := 0; i < cliSetups; i++ {
		dir := filepath.Join(env.run, fmt.Sprintf("cache-%d", i))
		out := filepath.Join(env.run, fmt.Sprintf("fill-%d.txt", i))
		r := runCLI(bin, sweepArgs(sp, dir, out)...)
		if r.exitErr != nil {
			return nil, fmt.Errorf("cache fill: %w", r.exitErr)
		}
		if want := fmt.Sprintf("cache: hits=0 misses=%d rejects=0", entries); !bytes.Contains(r.stdout, []byte(want)) {
			return nil, fmt.Errorf("cache fill: want %q in output", want)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			return nil, err
		}
		if i > 0 && !bytes.Equal(got, fill) {
			return nil, fmt.Errorf("cache fill %d differs from fill 0", i)
		}
		fill = got
		setups = append(setups, r.took.Seconds())
	}
	digest := fnvHex(fill)
	fmt.Printf("digest warm-sweep sweep_seed=%d cells=%d entries=%d sweep_out=%s\n", sp.Seed, cells, entries, digest)
	goldenBad := false
	if g := goldenFor("warm-sweep", env.seed); g != nil && (len(g) != 1 || g[0] != digest) {
		goldenBad = true
		fmt.Println("digest warm-sweep MISMATCH against golden.json")
	}
	cacheDir := filepath.Join(env.run, "cache-0")
	ticks, err := cachedTicks(sp, cacheDir)
	if err != nil {
		return nil, err
	}

	settle()
	var led ledger
	var rss []float64
	var sweeps int
	warmOut := filepath.Join(env.run, "warm.txt")
	wantLine := []byte(fmt.Sprintf("cache: hits=%d misses=0 rejects=0", entries))
	start := time.Now()
	deadline := start.Add(env.seconds)
	for time.Now().Before(deadline) {
		_ = os.Remove(warmOut)
		r := runCLI(bin, sweepArgs(sp, cacheDir, warmOut)...)
		err := r.exitErr
		if err == nil && !bytes.Contains(r.stdout, wantLine) {
			err = fmt.Errorf("warm sweep missed the cache")
		}
		if err == nil {
			got, rerr := os.ReadFile(warmOut)
			switch {
			case rerr != nil:
				err = rerr
			case !bytes.Equal(got, fill):
				err = fmt.Errorf("warm sweep output differs from the cold fill")
			case goldenBad:
				err = fmt.Errorf("golden digest mismatch")
			}
		}
		led.record(r.took.Seconds(), err)
		if err == nil {
			sweeps++
			rss = append(rss, r.maxRSS)
		}
	}
	elapsed := time.Since(start).Seconds()
	res := newResult(&led)
	res.metrics["cells_per_s"] = float64(sweeps*cells) / elapsed
	res.metrics["sim_rate_per_s"] = float64(uint64(sweeps)*ticks) / elapsed
	res.metrics["peak_rss_mib"] = median(rss)
	res.metrics["setup_s"] = median(setups)
	res.notes = append(res.notes,
		fmt.Sprintf("server_ticks_per_s %.1f (served from the cache, %d per sweep)", res.metrics["sim_rate_per_s"], ticks),
		fmt.Sprintf("cache entries read per sweep %d", entries))
	return res, nil
}

// cachedTicks sums the server uptimes the grid's cached results stand
// for, by replaying the grid in-process against the filled cache.
func cachedTicks(sp service.Spec, dir string) (uint64, error) {
	cache := resultcache.NewDir(dir, fleet.CacheSchemaVersion)
	var ticks uint64
	for _, cell := range sp.Cells() {
		cfg, err := fleetConfig(sp, cell)
		if err != nil {
			return 0, err
		}
		res, err := fleet.RunSupervised(context.Background(), fleet.SupervisedConfig{Fleet: cfg, Cache: cache})
		if err != nil {
			return 0, err
		}
		if res.CacheHits != uint64(sp.Shards) {
			return 0, fmt.Errorf("in-process replay of the filled cache: %d hits, want %d", res.CacheHits, sp.Shards)
		}
		for _, s := range res.Study.Samples {
			ticks += s.Uptime
		}
	}
	return ticks, nil
}

// runHWServe runs `migbench -bench serve` on two closed-loop clients,
// comparing every run's stdout with the set-up runs'.
func runHWServe(env *env) (*result, error) {
	bin := filepath.Join(env.bin, "migbench")
	cycles := serveCycles(env.seed)
	args := []string{"-bench", "serve", "-cycles", fmt.Sprint(cycles)}

	var setups []float64
	var ref []byte
	for i := 0; i < cliSetups; i++ {
		r := runCLI(bin, args...)
		if r.exitErr != nil {
			return nil, fmt.Errorf("reference run: %w", r.exitErr)
		}
		if i > 0 && !bytes.Equal(r.stdout, ref) {
			return nil, fmt.Errorf("reference run %d differs from run 0", i)
		}
		ref = r.stdout
		setups = append(setups, r.took.Seconds())
	}
	if rows := strings.Count(string(ref), "%\n"); rows != serveRuns {
		return nil, fmt.Errorf("serve table has %d rows, want %d", rows, serveRuns)
	}
	digest := fnvHex(ref)
	fmt.Printf("digest hw-serve cycles=%d stdout=%s\n", cycles, digest)
	goldenBad := false
	if g := goldenFor("hw-serve", env.seed); g != nil && (len(g) != 1 || g[0] != digest) {
		goldenBad = true
		fmt.Println("digest hw-serve MISMATCH against golden.json")
	}

	settle()
	var led ledger
	var mu sync.Mutex
	var rss []float64
	var runs int
	start := time.Now()
	deadline := start.Add(env.seconds)
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				r := runCLI(bin, args...)
				err := r.exitErr
				switch {
				case err != nil:
				case !bytes.Equal(r.stdout, ref):
					err = fmt.Errorf("serve output differs from the reference run")
				case goldenBad:
					err = fmt.Errorf("golden digest mismatch")
				}
				led.record(r.took.Seconds(), err)
				if err == nil {
					mu.Lock()
					runs++
					rss = append(rss, r.maxRSS)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	res := newResult(&led)
	res.metrics["cells_per_s"] = float64(runs*serveRuns) / elapsed
	res.metrics["sim_rate_per_s"] = float64(uint64(runs)*serveRuns*cycles) / elapsed
	res.metrics["peak_rss_mib"] = median(rss)
	res.metrics["setup_s"] = median(setups)
	res.notes = append(res.notes, fmt.Sprintf("sim_cycles_per_s %.0f", res.metrics["sim_rate_per_s"]))
	return res, nil
}
