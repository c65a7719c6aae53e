package service

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"contiguitas/internal/fleet"
)

// tinySpec is sized like the fleet package's supervision tests: enough
// servers for several shards, small enough that a campaign finishes in
// well under a second.
func tinySpec() Spec {
	return Spec{
		Name:     "tiny",
		Servers:  12,
		MemsMiB:  []uint64{64},
		TicksMin: 20,
		TicksMax: 60,
		Seed:     5,
		Shards:   4,
	}
}

func fastSched(st Store) *Scheduler {
	return NewScheduler(SchedulerConfig{
		Store:       st,
		Workers:     1,
		QueueDepth:  4,
		BackoffBase: time.Microsecond,
		BackoffCap:  time.Millisecond,
	})
}

// waitTerminal polls until the campaign reaches a terminal state.
func waitTerminal(t *testing.T, s *Scheduler, id string) *Campaign {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		c, err := s.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if c.State.Terminal() {
			return c
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("campaign never reached a terminal state")
	return nil
}

// referenceMerged computes what a campaign's merged result must be, by
// running each cell directly through the plain fleet engine — no
// scheduler, no store, no supervision stress.
func referenceMerged(sp Spec) []byte {
	sp = sp.normalized()
	var out bytes.Buffer
	for _, cell := range sp.Cells() {
		cfg, err := sp.FleetConfig(cell)
		if err != nil {
			panic(err)
		}
		data := fleet.CanonicalBytes(fleet.Run(cfg))
		fmt.Fprintf(&out, "cell design=%s mem_mib=%d jitter=%g bytes=%d\n",
			cell.Design, cell.MemMiB, cell.Jitter, len(data))
		out.Write(data)
	}
	return out.Bytes()
}

// TestSubmitRunsToCanonicalResult: the end-to-end happy path on both
// backends — submit, run, and the merged result is byte-identical to a
// direct unsupervised computation of the same spec.
func TestSubmitRunsToCanonicalResult(t *testing.T) {
	want := referenceMerged(tinySpec())
	for name, open := range storeBackends(t) {
		t.Run(name, func(t *testing.T) {
			s := fastSched(open(t))
			s.Start()
			defer s.Drain()

			c, created, err := s.Submit(tinySpec(), "happy")
			if err != nil || !created {
				t.Fatalf("Submit = created=%v err=%v", created, err)
			}
			fin := waitTerminal(t, s, c.ID)
			if fin.State != StateDone {
				t.Fatalf("campaign %s: %s", fin.State, fin.Error)
			}
			if fin.CellsDone != fin.Cells || fin.ResultDigest == "" {
				t.Fatalf("done record incomplete: %+v", fin)
			}
			got, err := s.Result(c.ID)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("service result (%d bytes) != direct fleet run (%d bytes)", len(got), len(want))
			}
			// The record's durable Put lands an instant before the counter
			// increment; poll briefly instead of racing the worker.
			for end := time.Now().Add(time.Second); s.Stats().Completed != 1 && time.Now().Before(end); {
				time.Sleep(time.Millisecond)
			}
			if s.Stats().Completed != 1 {
				t.Fatalf("stats: %+v", s.Stats())
			}
		})
	}
}

// TestSweepGridMergesAllCells: a multi-cell grid runs every cell in
// canonical order and merges them deterministically.
func TestSweepGridMergesAllCells(t *testing.T) {
	sp := tinySpec()
	sp.Designs = []string{"linux", "contiguitas"}
	sp.Jitters = []float64{0, 0.2}
	want := referenceMerged(sp)

	s := fastSched(NewMemory())
	s.Start()
	defer s.Drain()
	c, _, err := s.Submit(sp, "grid")
	if err != nil {
		t.Fatal(err)
	}
	if c.Cells != 4 {
		t.Fatalf("grid expanded to %d cells, want 4", c.Cells)
	}
	fin := waitTerminal(t, s, c.ID)
	if fin.State != StateDone {
		t.Fatalf("campaign %s: %s", fin.State, fin.Error)
	}
	got, err := s.Result(c.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("sweep result diverged from direct per-cell runs")
	}
}

// TestIdempotentResubmit: same key + same spec dedupes to the same
// campaign (even after it finished); same key + different spec is a
// typed conflict.
func TestIdempotentResubmit(t *testing.T) {
	s := fastSched(NewMemory())
	s.Start()
	defer s.Drain()

	first, created, err := s.Submit(tinySpec(), "idem")
	if err != nil || !created {
		t.Fatalf("first submit: created=%v err=%v", created, err)
	}
	again, created, err := s.Submit(tinySpec(), "idem")
	if err != nil || created {
		t.Fatalf("resubmit: created=%v err=%v, want dedupe", created, err)
	}
	if again.ID != first.ID {
		t.Fatalf("dedupe returned a different campaign: %s != %s", again.ID, first.ID)
	}

	other := tinySpec()
	other.Seed++
	if _, _, err := s.Submit(other, "idem"); !errors.Is(err, ErrKeyReuse) {
		t.Fatalf("key reuse with changed spec = %v, want ErrKeyReuse", err)
	}

	waitTerminal(t, s, first.ID)
	done, created, err := s.Submit(tinySpec(), "idem")
	if err != nil || created {
		t.Fatalf("resubmit after done: created=%v err=%v", created, err)
	}
	if done.State != StateDone {
		t.Fatalf("resubmit after done returned state %s", done.State)
	}
	if s.Stats().Deduped != 2 {
		t.Fatalf("stats: %+v", s.Stats())
	}
}

// TestSubmitValidation: bad specs and missing keys are typed 400-class
// errors and never reach the store.
func TestSubmitValidation(t *testing.T) {
	s := fastSched(NewMemory())
	if _, _, err := s.Submit(tinySpec(), ""); !errors.Is(err, ErrNoKey) {
		t.Fatalf("no key = %v, want ErrNoKey", err)
	}
	bad := tinySpec()
	bad.Designs = []string{"windows"}
	if _, _, err := s.Submit(bad, "k"); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("bad design = %v, want ErrBadSpec", err)
	}
	bad = tinySpec()
	bad.TicksMin, bad.TicksMax = 50, 20
	if _, _, err := s.Submit(bad, "k"); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("inverted ticks = %v, want ErrBadSpec", err)
	}
	bad = tinySpec()
	bad.Jitters = []float64{1.5}
	if _, _, err := s.Submit(bad, "k"); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("jitter 1.5 = %v, want ErrBadSpec", err)
	}
	if list, _ := s.List(); len(list) != 0 {
		t.Fatalf("rejected submits reached the store: %d records", len(list))
	}
}

// TestQueueAdmissionBound: with no workers draining the queue, submits
// beyond QueueDepth get ErrQueueFull; distinct keys, distinct records.
func TestQueueAdmissionBound(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Store: NewMemory(), QueueDepth: 2})
	// Never started: the queue only fills.
	for i := 0; i < 2; i++ {
		if _, _, err := s.Submit(tinySpec(), fmt.Sprintf("q%d", i)); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	_, _, err := s.Submit(tinySpec(), "q2")
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit = %v, want ErrQueueFull", err)
	}
	if st := s.Stats(); st.Submitted != 2 || st.Rejected != 1 {
		t.Fatalf("stats: %+v", st)
	}
	// The rejected campaign left no record — a 429 means "try again",
	// and a retry with the same key must be a fresh admission, not a
	// dedupe against a ghost.
	if _, err := s.Get(CampaignID("q2")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("rejected submit left a record: %v", err)
	}
}

// TestDrainRejectsAndPreservesQueue: draining flips submissions to
// ErrDraining and leaves queued campaigns queued (for the next process
// lifetime), never starting them.
func TestDrainRejectsAndPreservesQueue(t *testing.T) {
	st := NewMemory()
	s := NewScheduler(SchedulerConfig{Store: st, QueueDepth: 4})
	if _, _, err := s.Submit(tinySpec(), "parked"); err != nil {
		t.Fatal(err)
	}
	s.Start()
	s.Drain()
	if _, _, err := s.Submit(tinySpec(), "late"); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit while draining = %v, want ErrDraining", err)
	}
	c, err := st.Get(CampaignID("parked"))
	if err != nil {
		t.Fatal(err)
	}
	if c.State != StateQueued && c.State != StateRunning && c.State != StateDone {
		t.Fatalf("parked campaign in state %s", c.State)
	}
}

// TestDeadlineFailsCampaign: a campaign that cannot finish inside its
// deadline fails terminally with a deadline message — it does not hang
// and does not stay running forever.
func TestDeadlineFailsCampaign(t *testing.T) {
	s := NewScheduler(SchedulerConfig{
		Store:           NewMemory(),
		Workers:         1,
		DefaultDeadline: time.Millisecond,
		BackoffBase:     time.Microsecond,
		BackoffCap:      time.Millisecond,
	})
	s.Start()
	defer s.Drain()
	sp := tinySpec()
	sp.Servers = 64
	sp.TicksMin, sp.TicksMax = 200, 400
	c, _, err := s.Submit(sp, "deadline")
	if err != nil {
		t.Fatal(err)
	}
	fin := waitTerminal(t, s, c.ID)
	if fin.State != StateFailed {
		t.Fatalf("campaign %s, want failed", fin.State)
	}
	if fin.Error == "" {
		t.Fatal("failed campaign carries no error")
	}
	if s.Stats().Failed != 1 {
		t.Fatalf("stats: %+v", s.Stats())
	}
}

// TestRetryThenFailOnPersistentFaults: a fault plan that makes every
// checkpoint write fail forces quarantine; the scheduler retries with
// backoff up to the budget and then fails terminally, counting the
// retries.
func TestRetryThenFailOnPersistentFaults(t *testing.T) {
	sp := tinySpec()
	sp.MaxAttempts = 2
	s := NewScheduler(SchedulerConfig{
		Store:            NewMemory(),
		Workers:          1,
		BackoffBase:      time.Microsecond,
		BackoffCap:       time.Millisecond,
		ShardMaxAttempts: 2,
		Faults:           fleet.FaultPlan{CrashEveryN: 2, CheckpointFailProb: 1.0},
	})
	s.Start()
	defer s.Drain()
	c, _, err := s.Submit(sp, "doomed")
	if err != nil {
		t.Fatal(err)
	}
	fin := waitTerminal(t, s, c.ID)
	if fin.State != StateFailed {
		t.Fatalf("campaign %s (%s), want failed", fin.State, fin.Error)
	}
	st := s.Stats()
	if st.Retried == 0 {
		t.Fatalf("terminal failure without a single retry: %+v", st)
	}
}
