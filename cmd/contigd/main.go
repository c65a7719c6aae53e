// Command contigd is the resident campaign daemon: a long-lived HTTP
// service that accepts fleet-study campaign submissions, runs them
// through the supervised sharded engine with durable checkpoints, and
// survives restarts without losing acknowledged work.
//
//	contigd -state-dir /var/lib/contigd -addr :8239
//
// On startup it scans the state directory and re-admits every campaign
// that was queued or running when the previous process died, resuming
// each from its shard checkpoints; the resumed campaign's result is
// byte-identical to an uninterrupted run. SIGTERM/SIGINT drain
// gracefully: admission stops (503), in-flight shards checkpoint at
// their next server boundary, records stay non-terminal on disk, and
// the process exits 0. A SIGKILL at any instant loses at most one
// shard's current attempt, never a completed one.
//
// Storage faults do not crash the daemon: a store write that keeps
// failing past -store-retries fails the campaign with a typed storage
// error and flips the daemon into read-only degraded mode — new
// admissions get 503 + Retry-After, reads keep serving, /healthz
// reports {"status":"degraded"}, and a background probe (paced by
// -probe-interval) lifts degraded mode once the backend writes again.
// -scrub runs an integrity pass over the state directory before the
// listener comes up (corrupt artifacts are quarantined under
// .quarantine/ and healable campaigns requeued); -scrub-every repeats
// the pass on a timer. -chaos-fs arms the fault-injecting filesystem
// for soak tests.
//
// The API (/api/campaigns, /api/stats) is mounted on the same mux as
// the observability plane (/healthz, /metrics, /campaigns, /events,
// /debug/pprof/), so one port serves both control and introspection.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"contiguitas/internal/cli"
	"contiguitas/internal/obsv"
	"contiguitas/internal/service"
	"contiguitas/internal/vfs"
)

func main() {
	addr := flag.String("addr", ":8239", "HTTP listen address (\":0\" for an ephemeral port)")
	stateDir := flag.String("state-dir", "", "durable state directory (empty keeps campaigns in memory — they will NOT survive a restart)")
	workers := flag.Int("workers", 2, "campaigns run concurrently")
	queueDepth := flag.Int("queue-depth", 8, "bounded admission queue; submits beyond it get 429")
	shardWorkers := flag.Int("shard-workers", 0, "worker goroutines per campaign cell (0 picks the supervise default)")
	maxAttempts := flag.Int("max-attempts", 3, "default per-cell retry budget for specs that set none")
	deadline := flag.Duration("campaign-deadline", 0, "default per-campaign deadline for specs that set none (0 = unbounded)")
	storeRetries := flag.Int("store-retries", 0, "store write attempts before a campaign fails with a storage error and the daemon degrades (0 picks the default)")
	probeInterval := flag.Duration("probe-interval", 0, "degraded-mode store probe cadence (0 picks the default)")
	scrub := flag.Bool("scrub", false, "run an integrity scrub over -state-dir before serving")
	scrubEvery := flag.Duration("scrub-every", 0, "repeat the integrity scrub on this cadence while serving (0 = startup-only)")
	chaosFS := flag.String("chaos-fs", "", "arm the fault-injecting filesystem, e.g. \"seed=7,write=0.05,rot\" (soak testing only)")
	cli.Parse(flag.CommandLine, os.Args[1:])

	if *chaosFS != "" {
		inj, err := vfs.NewInjectFromSpec(vfs.Active(), *chaosFS)
		if err != nil {
			cli.Usagef("contigd: -chaos-fs: %v", err)
		}
		vfs.SetDefault(inj)
		fmt.Printf("contigd: CHAOS: filesystem fault injection armed (%s)\n", *chaosFS)
	}

	var store service.Store
	var disk *service.Disk
	if *stateDir != "" {
		d, err := service.OpenDisk(*stateDir)
		if err != nil {
			cli.Runtimef("contigd: open state dir: %v", err)
		}
		store, disk = d, d
	} else {
		fmt.Println("contigd: WARNING: no -state-dir, campaigns are in-memory only and will not survive a restart")
		store = service.NewMemory()
	}
	if (*scrub || *scrubEvery > 0) && disk == nil {
		cli.Usagef("contigd: -scrub requires -state-dir (memory cannot rot)")
	}

	board := obsv.NewBoard()
	bus := obsv.NewEventBus()
	sched := service.NewScheduler(service.SchedulerConfig{
		Store:           store,
		Workers:         *workers,
		QueueDepth:      *queueDepth,
		ShardWorkers:    *shardWorkers,
		MaxAttempts:     *maxAttempts,
		DefaultDeadline: *deadline,
		StoreRetries:    *storeRetries,
		ProbeInterval:   *probeInterval,
		Board:           board,
		Bus:             bus,
	})

	scrubCfg := service.ScrubConfig{Disk: disk, Sched: sched}
	if *scrub || *scrubEvery > 0 {
		// Scrub before recovery: a rotted record is quarantined (lost, not
		// trusted) and a rotted cell is requeued before any worker can
		// merge it, so recovery only ever sees artifacts that pass their
		// digests.
		rep, err := service.Scrub(scrubCfg)
		if err != nil {
			cli.Runtimef("contigd: startup scrub: %v", err)
		}
		fmt.Printf("contigd: %s\n", rep)
	}

	// Recovery before the listener: re-admitted campaigns are first in
	// line, and a prober that connects sees truthful queue state.
	recovered, err := sched.Recover()
	if err != nil {
		cli.Runtimef("contigd: recovery scan: %v", err)
	}
	fmt.Printf("contigd: recovered %d campaign(s)\n", recovered)
	sched.Start()

	// Periodic scrub: same pass as startup, on a timer, stopped at drain.
	scrubStop := make(chan struct{})
	scrubDone := make(chan struct{})
	if *scrubEvery > 0 {
		go func() {
			defer close(scrubDone)
			t := time.NewTicker(*scrubEvery)
			defer t.Stop()
			for {
				select {
				case <-scrubStop:
					return
				case <-t.C:
					if rep, err := service.Scrub(scrubCfg); err != nil {
						fmt.Printf("contigd: periodic scrub: %v\n", err)
					} else if len(rep.Quarantined) > 0 || len(rep.Lost) > 0 {
						fmt.Printf("contigd: %s\n", rep)
					}
				}
			}
		}()
	} else {
		close(scrubDone)
	}

	srv, err := obsv.Start(obsv.Options{
		Addr:   *addr,
		Board:  board,
		Bus:    bus,
		Extend: sched.Mount,
		Health: sched.Health,
	})
	if err != nil {
		cli.Runtimef("contigd: listen: %v", err)
	}
	fmt.Printf("contigd: serving on %s (state: %s)\n", srv.URL(), stateDesc(*stateDir))

	// Block until asked to leave. SIGTERM and SIGINT both mean "drain":
	// the only unclean exit is the one nobody gets to handle.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, os.Interrupt)
	sig := <-sigs
	fmt.Printf("contigd: %s: draining (admission stopped, checkpointing in-flight shards)\n", sig)

	start := time.Now()
	close(scrubStop)
	<-scrubDone
	sched.Drain()
	srv.Close()
	st := sched.Stats()
	fmt.Printf("contigd: drained in %s: submitted=%d deduped=%d rejected=%d recovered=%d completed=%d failed=%d retried=%d store_retried=%d store_errors=%d cells_healed=%d scrub_quarantined=%d\n",
		time.Since(start).Round(time.Millisecond),
		st.Submitted, st.Deduped, st.Rejected, st.Recovered, st.Completed, st.Failed, st.Retried,
		st.StoreRetried, st.StoreErrors, st.CellsHealed, st.ScrubQuarantined)
	if st.Degraded {
		fmt.Println("contigd: exiting while DEGRADED: the storage backend never recovered")
		os.Exit(cli.CodeRuntime)
	}
	os.Exit(cli.CodeOK)
}

func stateDesc(dir string) string {
	if dir == "" {
		return "in-memory"
	}
	return dir
}
