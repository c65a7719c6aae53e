package main

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"contiguitas/internal/service"
)

func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		n, pct  int
		value   float64
		beyond  int
		comment string
	}{
		{n: 100, pct: 90, value: 90, beyond: 10},
		{n: 1000, pct: 99, value: 990, beyond: 10},
		{n: 30, pct: 66, value: 20, beyond: 10},
		{n: 20, pct: 50, value: 10, beyond: 10},
		{n: 12, pct: 50, value: 6.5, beyond: 6, comment: "too few samples: median, and it says so"},
	} {
		got := tailOf(seq(tc.n))
		if got.Pct != tc.pct || got.Value != tc.value || got.Beyond != tc.beyond || got.N != tc.n {
			t.Errorf("n=%d: got %+v, want p%d=%g with %d beyond %s", tc.n, got, tc.pct, tc.value, tc.beyond, tc.comment)
		}
	}
	for n := 20; n <= 600; n++ {
		got := tailOf(seq(n))
		if got.Beyond < tailMinBeyond {
			t.Fatalf("n=%d: p%d has only %d samples beyond it", n, got.Pct, got.Beyond)
		}
		if got.Pct < 99 {
			// The next percentile up must not also qualify.
			r := int(math.Ceil(float64((got.Pct+1)*n) / 100))
			if n-r >= tailMinBeyond {
				t.Fatalf("n=%d: p%d qualifies but p%d was chosen", n, got.Pct+1, got.Pct)
			}
		}
	}
	if got := tailOf(nil); got.N != 0 {
		t.Errorf("empty: %+v", got)
	}
}

// fakeDaemon serves the campaign API for one behaviour per key.
func fakeDaemon(t *testing.T, good []byte) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	writeJSON := func(w http.ResponseWriter, code int, v any) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		_ = json.NewEncoder(w).Encode(v)
	}
	mux.HandleFunc("POST /api/campaigns", func(w http.ResponseWriter, r *http.Request) {
		key := r.Header.Get("Idempotency-Key")
		switch key {
		case "refuse429":
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusTooManyRequests, map[string]string{"error": "queue full"})
			return
		case "refuse503":
			w.Header().Set("Retry-After", "5")
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "draining"})
			return
		}
		writeJSON(w, http.StatusCreated, map[string]any{"created": true, "campaign": service.Campaign{ID: key, State: service.StateQueued}})
	})
	mux.HandleFunc("GET /api/campaigns/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		c := service.Campaign{ID: id, State: service.StateDone, ResultDigest: fnvHex(good)}
		if id == "failed" {
			c = service.Campaign{ID: id, State: service.StateFailed, Error: "cell 0: incomplete"}
		}
		writeJSON(w, http.StatusOK, c)
	})
	mux.HandleFunc("GET /api/campaigns/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		data := append([]byte(nil), good...)
		if r.PathValue("id") == "flip" {
			data[len(data)/2] ^= 0x01
		}
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(data)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func TestFailureAccounting(t *testing.T) {
	good := []byte("cell design=linux mem_mib=128 jitter=0.5 bytes=8\n01234567")
	want := &expected{result: good, digest: fnvHex(good)}
	srv := fakeDaemon(t, good)
	client := newClient()

	var led ledger
	for _, key := range []string{"ok", "refuse429", "refuse503", "failed", "flip"} {
		_, err := runCampaign(context.Background(), client, srv.URL, key, service.Spec{}, want, 0, nil)
		if (key == "ok") != (err == nil) {
			t.Errorf("%s: err = %v", key, err)
		}
		led.record(0.1, err)
	}
	if led.attempted != 5 || led.failed != 4 || len(led.lat) != 1 {
		t.Fatalf("attempted=%d failed=%d latencies=%d, want 5/4/1", led.attempted, led.failed, len(led.lat))
	}
	if got := led.errorRate(); got != 0.8 {
		t.Errorf("error rate %g, want 0.8", got)
	}
	for _, reason := range []string{"submit: HTTP 429", "submit: HTTP 503", "campaign failed", "result mismatch"} {
		if led.reasons[reason] != 1 {
			t.Errorf("reason %q counted %d times (reasons %v)", reason, led.reasons[reason], led.reasons)
		}
	}
}

func TestOverheadEndsWhenEveryOpFails(t *testing.T) {
	fail := func() error { return errors.New("result mismatch") }
	var led ledger
	done := make(chan struct{})
	var untraced, traced []float64
	go func() {
		defer close(done)
		untraced, traced = overhead(20*time.Millisecond, fail, fail, &led)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("overhead loop did not end at its deadline")
	}
	if len(untraced)+len(traced) != 0 || led.attempted < 2 || led.failed != led.attempted {
		t.Errorf("samples %d/%d, attempted %d, failed %d", len(untraced), len(traced), led.attempted, led.failed)
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const (
		interval = 10 * time.Millisecond
		stall    = 80 * time.Millisecond
	)
	var mu sync.Mutex
	first := true
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		stallNow := first
		first = false
		mu.Unlock()
		if stallNow {
			time.Sleep(stall)
		}
		_, _ = w.Write([]byte("ok"))
	}))
	defer srv.Close()

	obs := &observer{client: newClient(), base: srv.URL, interval: interval}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	obs.run(ctx)

	if len(obs.metrics) < 2 || len(obs.lateness) < 3 {
		t.Fatalf("too few requests: metrics=%d lateness=%d", len(obs.metrics), len(obs.lateness))
	}
	// Request 2 (a /metrics GET, due at 20ms) queued behind the stalled
	// request 0: it is served fast, but its latency counts from its due
	// time and so includes most of the stall.
	if got := obs.metrics[1]; got < float64(stall-2*interval)/1e6 {
		t.Errorf("request due during the stall reports %.1fms, want >= %.1fms", got, float64(stall-2*interval)/1e6)
	}
	if got := obs.lateness[1]; got < float64(stall-interval)/1e6 {
		t.Errorf("generator lateness of request 1 = %.1fms, want >= %.1fms", got, float64(stall-interval)/1e6)
	}
	// Once the backlog drains, requests are on time again.
	if got := obs.lateness[len(obs.lateness)-1]; got > float64(interval)/1e6 {
		t.Errorf("last request still %.1fms late", got)
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			n += i * i
		}
	}
	return n
}

var sink int

func TestFoldRealProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	if err := writeProfile(path, func() error { sink = spin(400 * time.Millisecond); return nil }); err != nil {
		t.Skipf("profiler busy: %v", err)
	}
	shares, total, err := foldByPackage(path)
	if err != nil {
		t.Fatal(err)
	}
	if total < 100 {
		t.Skipf("only %.0f ms of samples", total)
	}
	// The loop's leaf frames are this package's spin (named by import
	// path in a test binary, "main" in a command) and the clock reads it
	// makes.
	self := shares["contiguitas/perfbench"] + shares["main"]
	if self == 0 {
		t.Errorf("no sample attributed to this package: %v", shares)
	}
	if got := self + shares["time"] + shares["runtime"]; got < 0.9 {
		t.Errorf("spin accounts for %.2f of %.0f ms: %v", got, total, shares)
	}
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %g", sum)
	}
}

func TestPackageOf(t *testing.T) {
	for sym, want := range map[string]string{
		"contiguitas/internal/mem.(*Buddy).Alloc":          "contiguitas/internal/mem",
		"contiguitas/internal/hw/engine.(*Engine).Run":     "contiguitas/internal/hw/engine",
		"runtime.mallocgc":                                 "runtime",
		"main.spin":                                        "main",
		"encoding/gob.(*Encoder).Encode":                   "encoding/gob",
		"contiguitas/internal/fleet.RunSupervised.func1.1": "contiguitas/internal/fleet",
	} {
		if got := packageOf(sym); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", sym, got, want)
		}
	}
	if strings.Contains(packageOf("a/b.c"), ".") {
		t.Error("package path kept a symbol suffix")
	}
}
