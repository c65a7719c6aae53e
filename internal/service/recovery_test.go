package service

import (
	"bytes"
	"testing"
	"time"

	"contiguitas/internal/fault"
	"contiguitas/internal/vfs"
)

// The kill-at-every-phase recovery property: a campaign interrupted at
// each durable-write boundary — and mid-computation — must, after a
// "process restart" (fresh store handle, fresh scheduler, Recover),
// finish with merged result bytes identical to an uninterrupted run.
// The in-process kill hook models SIGKILL: every store write completes
// its fsync+rename before the next phase starts, and the first lifetime
// runs on a vfs.DeadFS that the kill turns off, so nothing the dying
// scheduler still attempts (a drain's checkpoints, an error path's
// cleanup) reaches the disk. (True torn-write/process-death coverage is
// the CI service-soak job, which SIGKILLs a real contigd.)
func TestKillAtEveryPhaseRecoversIdentically(t *testing.T) {
	sp := tinySpec()
	want := referenceMerged(sp)

	phases := []string{"before-run", "mid-run", "before-cell-journal", "before-result", "after-result"}
	for _, phase := range phases {
		phase := phase
		t.Run(phase, func(t *testing.T) {
			root := t.TempDir()
			dead := vfs.DeadFS{InjectFS: vfs.NewInjectFS(vfs.Active(), fault.New(1), vfs.InjectConfig{})}
			restore := vfs.SetDefault(dead)
			defer restore()
			st, err := OpenDisk(root)
			if err != nil {
				t.Fatal(err)
			}

			// Process lifetime 1: submit, then die at the phase boundary
			// (or mid-computation via drain-without-notice for "mid-run").
			s1 := fastSched(st)
			killed := make(chan struct{}, 1)
			if phase != "mid-run" {
				s1.testKill = func(point, _ string) bool {
					if point != phase {
						return false
					}
					dead.Kill()
					select {
					case killed <- struct{}{}:
					default:
					}
					return true
				}
			}
			s1.Start()
			if _, _, err := s1.Submit(sp, "kill-me"); err != nil {
				t.Fatal(err)
			}
			id := CampaignID("kill-me")
			if phase == "mid-run" {
				// Let the campaign get into the fleet engine, then yank
				// the root context — shards checkpoint at their next
				// server boundary and the process "dies".
				waitForState(t, st, id, StateRunning)
				time.Sleep(20 * time.Millisecond)
				dead.Kill()
			} else {
				select {
				case <-killed:
				case <-time.After(30 * time.Second):
					t.Fatalf("kill hook for %s never fired", phase)
				}
			}
			s1.Drain()
			st.Close()
			restore()

			// Process lifetime 2: reopen, recover, and the campaign must
			// complete with byte-identical results.
			st2, err := OpenDisk(root)
			if err != nil {
				t.Fatal(err)
			}
			s2 := fastSched(st2)
			n, err := s2.Recover()
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case n == 1:
				// The usual case: the kill landed mid-campaign.
			case n == 0 && phase == "mid-run":
				// The race the phase cannot exclude: the tiny campaign
				// finished before the drain landed. A kill after
				// completion is itself a valid crash point — the record
				// must already be done.
				if c, err := st2.Get(id); err != nil || c.State != StateDone {
					t.Fatalf("nothing recovered and campaign not done: %v", err)
				}
			default:
				t.Fatalf("recovered %d campaigns, want 1", n)
			}
			s2.Start()
			defer s2.Drain()
			fin := waitTerminal(t, s2, id)
			if fin.State != StateDone {
				t.Fatalf("recovered campaign %s: %s", fin.State, fin.Error)
			}
			got, err := s2.Result(id)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("result after kill at %s (%d bytes) != uninterrupted run (%d bytes)",
					phase, len(got), len(want))
			}
		})
	}
}

func waitForState(t *testing.T, st Store, id string, state State) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		c, err := st.Get(id)
		if err == nil && c.State == state {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("campaign never reached state %s", state)
}

// TestRecoveryIsIdempotent: recovering twice (a crash during recovery,
// then another restart) must not duplicate or corrupt anything — the
// second process lifetime sees one campaign, runs it once.
func TestRecoveryDoneCampaignsStayDone(t *testing.T) {
	root := t.TempDir()
	st, err := OpenDisk(root)
	if err != nil {
		t.Fatal(err)
	}
	s1 := fastSched(st)
	s1.Start()
	if _, _, err := s1.Submit(tinySpec(), "finish-me"); err != nil {
		t.Fatal(err)
	}
	id := CampaignID("finish-me")
	fin := waitTerminal(t, s1, id)
	if fin.State != StateDone {
		t.Fatalf("campaign %s: %s", fin.State, fin.Error)
	}
	digest := fin.ResultDigest
	s1.Drain()
	st.Close()

	st2, err := OpenDisk(root)
	if err != nil {
		t.Fatal(err)
	}
	s2 := fastSched(st2)
	n, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("recovery re-admitted %d terminal campaigns", n)
	}
	c, err := s2.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if c.State != StateDone || c.ResultDigest != digest {
		t.Fatalf("done campaign mutated across restart: %+v", c)
	}
}

// TestDrainMidCampaignThenResume is the SIGTERM half of the drain
// contract at the scheduler level: drain interrupts a running campaign,
// its record stays non-terminal with its checkpoints durable, and the
// next lifetime resumes to a byte-identical result. (The process-level
// assertion — exit 0, grep-able drain line — is CI's service-soak job.)
func TestDrainMidCampaignThenResume(t *testing.T) {
	sp := tinySpec()
	sp.Servers = 24
	sp.Shards = 8
	want := referenceMerged(sp)

	root := t.TempDir()
	st, err := OpenDisk(root)
	if err != nil {
		t.Fatal(err)
	}
	s1 := fastSched(st)
	s1.Start()
	if _, _, err := s1.Submit(sp, "drain-me"); err != nil {
		t.Fatal(err)
	}
	id := CampaignID("drain-me")
	waitForState(t, st, id, StateRunning)
	s1.Drain()
	st.Close()

	c := mustGet(t, root, id)
	if c.State.Terminal() {
		t.Fatalf("drained campaign already terminal: %s", c.State)
	}

	st2, err := OpenDisk(root)
	if err != nil {
		t.Fatal(err)
	}
	s2 := fastSched(st2)
	if n, _ := s2.Recover(); n != 1 {
		t.Fatal("drained campaign not recovered")
	}
	s2.Start()
	defer s2.Drain()
	fin := waitTerminal(t, s2, id)
	if fin.State != StateDone {
		t.Fatalf("resumed campaign %s: %s", fin.State, fin.Error)
	}
	got, err := s2.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("result after drain+resume diverged from uninterrupted run")
	}
}

func mustGet(t *testing.T, root, id string) *Campaign {
	t.Helper()
	st, err := OpenDisk(root)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	c, err := st.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	return c
}
