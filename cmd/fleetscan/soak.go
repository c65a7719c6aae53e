// The -soak gate: the fleet study runs as a supervised sharded campaign
// under injected shard kills and checkpoint-write failures, and the
// merged result must come out byte-identical to an unfaulted same-seed
// run with zero quarantined shards. With -kill-after the process itself
// dies mid-campaign (simulating a machine crash between atomic state
// writes), and a second invocation with -resume finishes the study from
// the on-disk manifest and shard checkpoints.
package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"contiguitas/internal/cli"
	"contiguitas/internal/fleet"
	"contiguitas/internal/snapshot"
	"contiguitas/internal/supervise"
	"contiguitas/internal/telemetry"
)

type soakOptions struct {
	dir          string // state directory for a fresh faulted campaign
	resumeDir    string // non-empty: resume a killed campaign from here
	killEvery    uint64
	ckptFailProb float64
	killAfter    uint64
	minKills     uint64
}

// soakMaxAttempts is generous: an every-3rd-server kill schedule nets
// roughly one crash per two servers of progress, so a 16-server shard
// legitimately burns ~10 attempts before checkpoint faults are even
// counted. Quarantine must stay reserved for shards that stop making
// progress, and a false quarantine fails the gate.
const soakMaxAttempts = 64

// Soak backoff is compressed: the gate wants many kill/recover cycles
// per second, not production pacing.
const (
	soakBackoffBase = time.Millisecond
	soakBackoffCap  = 50 * time.Millisecond
)

func runSoak(cfg fleet.Config, opt soakOptions) {
	if opt.resumeDir != "" {
		resumeSoak(cfg, opt)
		return
	}

	fmt.Printf("soak: %d servers of %d MiB, seed %d, kill-every %d, ckpt-fail %.0f%%\n",
		cfg.Servers, cfg.MemBytes>>20, cfg.Seed, opt.killEvery, opt.ckptFailProb*100)

	// The oracle: same seed, no faults, no supervision stress.
	want := referenceBytes(cfg)

	var crashes uint64
	scfg := fleet.SupervisedConfig{
		Fleet:       cfg,
		MaxAttempts: soakMaxAttempts,
		BackoffBase: soakBackoffBase,
		BackoffCap:  soakBackoffCap,
		Heartbeat:   30 * time.Second,
		Dir:         opt.dir,
		Faults: fleet.FaultPlan{
			CrashEveryN:        opt.killEvery,
			CheckpointFailProb: opt.ckptFailProb,
		},
		Trace:   telemetry.NewRing(1 << 12),
		Metrics: telemetry.NewRegistry(),
		OnEvent: func(ev supervise.Event) {
			if ev.Kind != supervise.EventCrash {
				return
			}
			crashes++
			if opt.killAfter > 0 && crashes == opt.killAfter {
				// Die like a machine, not like a program: no cleanup, no
				// final manifest write. The atomic rename discipline must
				// make whatever is on disk resumable.
				fmt.Printf("killed process mid-campaign after %d shard crashes (resume with -soak -resume %s)\n",
					crashes, opt.dir)
				os.Exit(cli.CodeOK)
			}
		},
	}
	if opt.killAfter > 0 && opt.dir == "" {
		cli.Usagef("fleetscan: -kill-after needs -state-dir (a killed in-memory campaign has nothing to resume)")
	}
	onPlane(&scfg, "soak")

	res, err := fleet.RunSupervised(context.Background(), scfg)
	if err != nil {
		cli.Runtimef("fleetscan: soak: %v", err)
	}
	publishCampaign()
	report(res, scfg.Metrics)

	if res.KillsInjected < opt.minKills {
		cli.Verifyf("fleetscan: soak injected %d shard kills, need >= %d — the fault schedule did not stress the supervisor",
			res.KillsInjected, opt.minKills)
	}
	verifyIdentical(res, want)
	fmt.Printf("PASS: merged CDFs byte-identical to unfaulted same-seed run (%d kills, %d checkpoint faults, %d crashes survived)\n",
		res.KillsInjected, res.CheckpointFaultsInjected, res.Report.Crashes)
}

// resumeSoak finishes a killed campaign from its state directory. The
// resumed process runs unfaulted — the faults died with the process that
// armed them — and the completed study must still be byte-identical to
// the unfaulted oracle, proving the on-disk checkpoints carried exact
// state across the kill.
func resumeSoak(cfg fleet.Config, opt soakOptions) {
	fmt.Printf("soak resume: %d servers from %s\n", cfg.Servers, opt.resumeDir)
	scfg := fleet.SupervisedConfig{
		Fleet:       cfg,
		MaxAttempts: soakMaxAttempts,
		BackoffBase: soakBackoffBase,
		BackoffCap:  soakBackoffCap,
		Heartbeat:   30 * time.Second,
		Dir:         opt.resumeDir,
		Resume:      true,
		Metrics:     telemetry.NewRegistry(),
	}
	onPlane(&scfg, "soak-resume")
	res, err := fleet.RunSupervised(context.Background(), scfg)
	if err != nil {
		if errors.Is(err, snapshot.ErrNoManifest) {
			// Not a campaign state directory at all: a missing or empty
			// manifest is a bad -resume argument, not a verification
			// verdict — and silently starting a fresh campaign would hide
			// the typo that got us here.
			cli.Usagef("fleetscan: resume: %v", err)
		}
		// Everything else the resume path can report is an integrity
		// verdict: tampered manifest, mismatched checkpoint, wrong
		// campaign configuration.
		cli.Verifyf("fleetscan: resume: %v", err)
	}
	publishCampaign()
	report(res, scfg.Metrics)
	verifyIdentical(res, referenceBytes(cfg))
	var priorAttempts uint64
	for _, s := range res.Manifest.Shards {
		priorAttempts += s.Attempts
	}
	fmt.Printf("PASS: resumed campaign byte-identical to unfaulted same-seed run (%d attempts across process lifetimes)\n",
		priorAttempts)
}

func report(res *fleet.CampaignResult, reg *telemetry.Registry) {
	fmt.Printf("campaign: %s\n", res.Report)
	fmt.Printf("telemetry: crashes=%d resumes=%d quarantines=%d restart-attempts(max)=%d\n",
		reg.Counter("shard_crashes").Value(),
		reg.Counter("shard_resumes").Value(),
		reg.Counter("shard_quarantines").Value(),
		reg.Histogram("shard_restart").Max())
	for _, st := range res.Report.Shards {
		for _, c := range st.Crashes {
			fmt.Printf("  shard %d attempt %d died: %s: %s\n", st.Shard, c.Attempt, c.Kind, c.Reason)
		}
	}
}

func verifyIdentical(res *fleet.CampaignResult, want []byte) {
	if res.Report.Quarantined > 0 {
		cli.Verifyf("fleetscan: soak quarantined %d shard(s) %v — supervision failed to recover them",
			res.Report.Quarantined, res.MissingShards)
	}
	if !res.Report.Complete {
		cli.Verifyf("fleetscan: soak incomplete: %s (missing shards %v)", res.Report, res.MissingShards)
	}
	got := fleet.CanonicalBytes(res.Study)
	if !bytes.Equal(got, want) {
		cli.Verifyf("fleetscan: soak diverged: supervised study (%d bytes) != unfaulted study (%d bytes) — crashes or retries leaked into results",
			len(got), len(want))
	}
}

// referenceBytes runs the unfaulted oracle study and serialises it.
func referenceBytes(cfg fleet.Config) []byte {
	scfg := fleet.SupervisedConfig{Fleet: cfg}
	onPlane(&scfg, "reference")
	res, err := fleet.RunSupervised(context.Background(), scfg)
	if err != nil {
		cli.Runtimef("fleetscan: reference run: %v", err)
	}
	if !res.Report.Complete {
		cli.Verifyf("fleetscan: reference run incomplete with no faults armed: %s", res.Report)
	}
	return fleet.CanonicalBytes(res.Study)
}
