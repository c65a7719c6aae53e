package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"time"

	"contiguitas/internal/service"
)

// The request rates follow the repository's own callers, so the load
// generator does not add traffic a real client would not: pollInterval
// is how often the client asks whether its campaign is done (the soak
// scripts poll every 0.2-0.5 s), and observeInterval paces the open-loop
// observer like cmd/obsvcheck's 100 ms scrape loop.
const (
	pollInterval    = 100 * time.Millisecond
	observeInterval = 100 * time.Millisecond
)

// newClient returns an HTTP client that holds at most one connection, so
// the client and the observer together stay within the core count.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		Timeout:   60 * time.Second,
	}
}

// httpError is a non-2xx answer; every one counts as a failed operation.
type httpError struct {
	op     string
	status int
}

func (e *httpError) Error() string { return fmt.Sprintf("%s: HTTP %d", e.op, e.status) }

// get fetches url and fails on any non-2xx status.
func get(c *http.Client, url, op string) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", op, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s: read body: %w", op, err)
	}
	if resp.StatusCode/100 != 2 {
		return nil, &httpError{op: op, status: resp.StatusCode}
	}
	return body, nil
}

// campaignTimes splits one campaign operation into its HTTP calls.
type campaignTimes struct {
	submit, result time.Duration
}

// pollPhase is the delay before the first status poll of operation i.
// The phases spread evenly over one poll interval (golden-ratio
// sequence), so the time between a campaign's end and the poll that
// sees it averages half an interval: latency moves smoothly with the
// campaign's run time instead of in whole poll intervals.
func pollPhase(i int) time.Duration {
	const invPhi = 0.6180339887498949
	f := float64(i+1) * invPhi
	return time.Duration((f - math.Floor(f)) * float64(pollInterval))
}

// runCampaign is one closed-loop operation: submit spec under key, poll
// until the campaign is terminal (first after phase, then every
// pollInterval), fetch the result and compare it byte for byte with the
// oracle's. onID, when set, learns the campaign id as soon as it is
// known (the observer polls its status).
func runCampaign(ctx context.Context, c *http.Client, base, key string, sp service.Spec, want *expected, phase time.Duration, onID func(string)) (campaignTimes, error) {
	var tm campaignTimes
	body, err := json.Marshal(map[string]any{"spec": sp})
	if err != nil {
		return tm, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/api/campaigns", bytes.NewReader(body))
	if err != nil {
		return tm, err
	}
	req.Header.Set("Idempotency-Key", key)
	req.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return tm, fmt.Errorf("submit: %w", err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	tm.submit = time.Since(t0)
	if err != nil {
		return tm, fmt.Errorf("submit: read body: %w", err)
	}
	if resp.StatusCode != http.StatusCreated {
		// 200 would mean the key was not fresh; 429/503 are refusals.
		return tm, &httpError{op: "submit", status: resp.StatusCode}
	}
	var sub struct {
		Campaign service.Campaign `json:"campaign"`
	}
	if err := json.Unmarshal(raw, &sub); err != nil {
		return tm, fmt.Errorf("submit: decode: %w", err)
	}
	id := sub.Campaign.ID
	if onID != nil {
		onID(id)
	}

	var camp service.Campaign
	for wait := phase; ; wait = pollInterval {
		select {
		case <-ctx.Done():
			return tm, ctx.Err()
		case <-time.After(wait):
		}
		raw, err := get(c, base+"/api/campaigns/"+id, "status")
		if err != nil {
			return tm, err
		}
		if err := json.Unmarshal(raw, &camp); err != nil {
			return tm, fmt.Errorf("status: decode: %w", err)
		}
		if camp.State.Terminal() {
			break
		}
	}
	if camp.State != service.StateDone {
		return tm, fmt.Errorf("campaign %s", camp.State)
	}
	t1 := time.Now()
	got, err := get(c, base+"/api/campaigns/"+id+"/result", "result")
	tm.result = time.Since(t1)
	if err != nil {
		return tm, err
	}
	if !bytes.Equal(got, want.result) {
		return tm, fmt.Errorf("result mismatch")
	}
	if camp.ResultDigest != want.digest {
		return tm, fmt.Errorf("result digest mismatch")
	}
	return tm, nil
}

// observer is the open-loop connection: it sends one GET per interval,
// alternating /metrics and the current campaign's status, and times each
// from the moment it was due, so a stall also charges the requests that
// queued behind it.
type observer struct {
	client   *http.Client
	base     string
	interval time.Duration

	mu      sync.Mutex
	current string

	metrics, status []float64 // ms from due time
	lateness        []float64 // ms between due time and send
	failures        int
}

func (o *observer) setCampaign(id string) {
	o.mu.Lock()
	o.current = id
	o.mu.Unlock()
}

func (o *observer) target(i int) (url string, isMetrics bool) {
	if i%2 == 0 {
		return o.base + "/metrics", true
	}
	o.mu.Lock()
	id := o.current
	o.mu.Unlock()
	if id == "" {
		return o.base + "/api/stats", false
	}
	return o.base + "/api/campaigns/" + id, false
}

// observe starts an observer against base; stop ends it and waits for
// its last request.
func observe(ctx context.Context, base string) (obs *observer, stop func()) {
	obs = &observer{client: newClient(), base: base, interval: observeInterval}
	ctx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		obs.run(ctx)
	}()
	return obs, func() { cancel(); <-done }
}

// book adds the observer's GETs to the ledger: every GET is an
// operation, and a failed one counts as failed.
func (o *observer) book(l *ledger) {
	l.count(len(o.metrics)+len(o.status)+o.failures, o.failures, "observer GET")
}

// run sends requests until ctx ends and returns when the last is done.
func (o *observer) run(ctx context.Context) {
	openLoop(ctx, o.interval, func(i int, due, sent time.Time) {
		url, isMetrics := o.target(i)
		_, err := get(o.client, url, "observe")
		ms := float64(time.Since(due)) / 1e6
		o.mu.Lock()
		defer o.mu.Unlock()
		o.lateness = append(o.lateness, float64(sent.Sub(due))/1e6)
		if err != nil {
			o.failures++
			return
		}
		if isMetrics {
			o.metrics = append(o.metrics, ms)
		} else {
			o.status = append(o.status, ms)
		}
	})
}

// openLoop calls do for request i at due time start+i*interval. Requests
// are issued in order on one goroutine: a request due while an earlier
// one is still running is sent as soon as that one returns, with its
// original due time, so the wait shows in its latency.
func openLoop(ctx context.Context, interval time.Duration, do func(i int, due, sent time.Time)) {
	start := time.Now()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if wait := time.Until(due); wait > 0 {
			select {
			case <-ctx.Done():
				return
			case <-time.After(wait):
			}
		} else if ctx.Err() != nil {
			return
		}
		do(i, due, time.Now())
	}
}
