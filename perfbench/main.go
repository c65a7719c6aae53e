// Command perfbench is the repository benchmark: it drives the real
// contigd, fleetscan and migbench binaries on four named workloads,
// verifies every output against an in-process oracle, and prints one
// JSON result line. With -trace 1 it instead runs the traced in-process
// replay and reports per-layer metrics. See README.md in this
// directory; run it through run.sh, which builds the binaries.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// env is one benchmark invocation.
type env struct {
	workload string
	seed     uint64
	seconds  time.Duration
	bin      string // directory holding contigd, fleetscan, migbench
	work     string // work directory for state, caches and traces
	run      string // this run's own directory under work (removed at exit)
}

// result is what a workload reports.
type result struct {
	metrics   map[string]float64
	notes     []string // human-readable lines printed before the JSON
	attempted int
	failed    int
	reasons   map[string]int
	tail      tail
}

// newResult summarises a ledger: its counts and the latency metrics.
func newResult(l *ledger) *result {
	r := &result{metrics: map[string]float64{}}
	r.refresh(l)
	l.mu.Lock()
	defer l.mu.Unlock()
	r.tail = tailOf(l.lat)
	r.metrics["latency_p50_s"] = median(l.lat)
	r.metrics["latency_tail_s"] = r.tail.Value
	return r
}

// refresh copies the ledger's operation counts.
func (r *result) refresh(l *ledger) {
	l.mu.Lock()
	defer l.mu.Unlock()
	r.attempted, r.failed, r.reasons = l.attempted, l.failed, l.reasons
}

// units of every metric either mode reports.
var units = map[string]string{
	"latency_p50_s":  "s",
	"latency_tail_s": "s",
	"cells_per_s":    "1/s",
	"sim_rate_per_s": "1/s",
	"peak_rss_mib":   "MiB",
	"setup_s":        "s",
}

var workloads = map[string]func(*env) (*result, error){
	"cold-campaign": func(e *env) (*result, error) {
		return runCampaignWorkload(e, campaignWorkload{name: "cold-campaign", pool: coldPool, spec: coldSpec})
	},
	"durable-campaign": func(e *env) (*result, error) {
		return runCampaignWorkload(e, campaignWorkload{name: "durable-campaign", durable: true, pool: durablePool, spec: durableSpec})
	},
	"warm-sweep": runWarmSweep,
	"hw-serve":   runHWServe,
}

//go:embed golden.json
var goldenJSON []byte

// goldenFor returns the committed digests of a workload's outputs for
// the default seed, and nil for any other seed (nothing to compare).
// A workload missing from golden.json yields an empty, never-matching
// list rather than silently skipping the check.
func goldenFor(workload string, seed uint64) []string {
	if seed != defaultSeed {
		return nil
	}
	var g map[string][]string
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return []string{}
	}
	if d, ok := g[workload]; ok {
		return d
	}
	return []string{}
}

func main() {
	workload := flag.String("workload", "", "workload: cold-campaign, durable-campaign, warm-sweep or hw-serve")
	seed := flag.Uint64("seed", defaultSeed, fmt.Sprintf("workload seed (golden digests exist for %d; %d is the held-out seed)", defaultSeed, heldOutSeed))
	seconds := flag.Int("seconds", 25, "measured window per run")
	trace := flag.Int("trace", 0, "1 runs the traced in-process replay and reports per-layer metrics")
	bin := flag.String("bin", ".bench_build/bin", "directory holding the contigd, fleetscan and migbench binaries")
	work := flag.String("work", ".bench_build", "work directory for run state, caches and traces")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload (cold-campaign|durable-campaign|warm-sweep|hw-serve), -seconds >= 1, -trace 0|1")
		os.Exit(2)
	}
	e := &env{workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second, bin: *bin, work: *work}
	var err error
	if e.run, err = os.MkdirTemp(e.work, "run-"+e.workload+"-"); err != nil {
		fatal(err)
	}
	settle()
	var res *result
	if *trace == 1 {
		res, err = runTraced(e)
	} else {
		res, err = run(e)
	}
	if rmErr := os.RemoveAll(e.run); err == nil && rmErr != nil {
		err = rmErr
	}
	if err != nil {
		fatal(err)
	}
	report(e, res)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

// report prints the human-readable summary and then, as the last line,
// the JSON result.
func report(e *env, r *result) {
	fmt.Printf("workload %s seed %d window %s\n", e.workload, e.seed, e.seconds)
	for _, n := range r.notes {
		fmt.Println(n)
	}
	errRate := 0.0
	if r.attempted > 0 {
		errRate = float64(r.failed) / float64(r.attempted)
	}
	fmt.Printf("error_rate %.6f (%d failed of %d attempted)\n", errRate, r.failed, r.attempted)
	reasons := make([]string, 0, len(r.reasons))
	for k := range r.reasons {
		reasons = append(reasons, k)
	}
	sort.Strings(reasons)
	for _, k := range reasons {
		fmt.Printf("  failure %q x%d\n", k, r.reasons[k])
	}
	if r.tail.N > 0 {
		fmt.Printf("latency_tail_s is %s\n", r.tail)
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	names := make([]string, 0, len(r.metrics))
	for k := range r.metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		u, ok := units[k]
		if !ok {
			u = layerUnits[k]
		}
		fmt.Printf("%-36s %.6g %s\n", k, r.metrics[k], u)
		out.Metrics[k] = metric{Value: r.metrics[k], Unit: u}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// settle flushes dirty pages to disk, so writeback left by the build,
// an earlier run or this run's set-up does not land inside a timed
// window (on a small VM it slowed fsync-heavy runs by more than 2x).
func settle() { syscall.Sync() }

// spanFile is where a traced run writes its spans.
func spanFile(e *env) string {
	return filepath.Join(e.work, "traces", fmt.Sprintf("%s-seed%d.json", e.workload, e.seed))
}
