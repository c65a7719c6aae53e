package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"contiguitas/internal/service"
)

// Daemon start-ups per run; setup_s is their median.
const daemonStarts = 15

// campaignWorkload describes cold-campaign and durable-campaign.
type campaignWorkload struct {
	name    string
	durable bool // run contigd on the disk store
	pool    int
	spec    func(seed uint64, i int) service.Spec
}

func (w campaignWorkload) specs(seed uint64) []service.Spec {
	out := make([]service.Spec, w.pool)
	for i := range out {
		out[i] = w.spec(seed, i)
	}
	return out
}

// derivePool runs the oracle over every spec of the pool and checks the
// default seed's digests against golden.json. A spec whose digest does
// not match the committed one is marked bad: every operation on it then
// counts as failed.
func derivePool(ctx context.Context, name string, seed uint64, specs []service.Spec) ([]expected, []bool, error) {
	want := make([]expected, len(specs))
	bad := make([]bool, len(specs))
	golden := goldenFor(name, seed)
	for i, sp := range specs {
		ex, err := deriveCampaign(ctx, sp, oracleWorkers(), nil)
		if err != nil {
			return nil, nil, err
		}
		want[i] = ex
		fmt.Printf("digest %s spec=%d study_seed=%d cells=%d server_ticks=%d result=%s\n",
			name, i, sp.Seed, ex.cells, ex.ticks, ex.digest)
		if golden != nil && (i >= len(golden) || golden[i] != ex.digest) {
			bad[i] = true
			fmt.Printf("digest %s spec=%d MISMATCH against golden.json\n", name, i)
		}
	}
	return want, bad, nil
}

// runCampaignWorkload drives contigd end to end: several timed
// start-ups, one warm-up campaign, then a closed-loop client for the
// measured window with the open-loop observer beside it.
func runCampaignWorkload(env *env, w campaignWorkload) (*result, error) {
	ctx := context.Background()
	specs := w.specs(env.seed)
	want, bad, err := derivePool(ctx, w.name, env.seed, specs)
	if err != nil {
		return nil, err
	}

	bin := filepath.Join(env.bin, "contigd")
	var setups []float64
	var d *daemon
	for i := 0; i < daemonStarts; i++ {
		stateDir := ""
		if w.durable {
			stateDir = filepath.Join(env.run, fmt.Sprintf("state-%d", i))
		}
		dd, took, err := startDaemon(bin, stateDir)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		if i < daemonStarts-1 {
			if err := dd.stop(true); err != nil {
				return nil, err
			}
			continue
		}
		d = dd
	}
	// From here on the daemon must be stopped on every path.
	res, runErr := driveCampaigns(ctx, env, w, d, specs, want, bad)
	if res != nil {
		if rss, err := d.peakRSSMiB(); err == nil {
			res.metrics["peak_rss_mib"] = rss
		} else if runErr == nil {
			runErr = err
		}
	}
	if err := d.stop(false); err != nil && runErr == nil {
		runErr = err
	}
	if runErr != nil {
		return nil, runErr
	}
	res.metrics["setup_s"] = median(setups)
	return res, nil
}

func driveCampaigns(ctx context.Context, env *env, w campaignWorkload, d *daemon, specs []service.Spec, want []expected, bad []bool) (*result, error) {
	client := newClient()
	key := func(tag string, i int) string {
		return fmt.Sprintf("perfbench-%s-%d-%d-%s%d", w.name, env.seed, os.Getpid(), tag, i)
	}
	// Warm-up: the daemon's first campaign pays heap growth; it is
	// verified against the oracle but neither timed nor counted.
	if _, err := runCampaign(ctx, client, d.base, key("warmup", 0), specs[0], &want[0], 0, nil); err != nil {
		return nil, fmt.Errorf("warm-up campaign: %w", err)
	}

	settle()
	obs, stopObs := observe(ctx, d.base)

	var led ledger
	var cells int
	var ticks uint64
	start := time.Now()
	deadline := start.Add(env.seconds)
	for i := 0; time.Now().Before(deadline); i++ {
		k := i % len(specs)
		t0 := time.Now()
		_, err := runCampaign(ctx, client, d.base, key("", i), specs[k], &want[k], pollPhase(i), obs.setCampaign)
		took := time.Since(t0).Seconds()
		if err == nil && bad[k] {
			err = fmt.Errorf("golden digest mismatch")
		}
		led.record(took, err)
		if err == nil {
			cells += want[k].cells
			ticks += want[k].ticks
		}
	}
	elapsed := time.Since(start).Seconds()
	stopObs()

	res := newResult(&led)
	res.metrics["cells_per_s"] = float64(cells) / elapsed
	res.metrics["sim_rate_per_s"] = float64(ticks) / elapsed
	obsAll := append(append([]float64(nil), obs.metrics...), obs.status...)
	res.notes = append(res.notes,
		fmt.Sprintf("server_ticks_per_s %.1f", float64(ticks)/elapsed),
		fmt.Sprintf("api_p50_ms %.3f (metrics %.3f, status %.3f; %d GETs, %d failed)",
			median(obsAll), median(obs.metrics), median(obs.status), len(obsAll)+obs.failures, obs.failures),
		fmt.Sprintf("observer lateness ms: median %.3f, max %.3f", median(obs.lateness), maxOf(obs.lateness)),
	)
	obs.book(&led)
	res.refresh(&led)
	return res, nil
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
