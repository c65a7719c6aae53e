package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func testServer(t *testing.T, s *Scheduler) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	s.Mount(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func postJSON(t *testing.T, url string, body string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp, data
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp, data
}

// TestHTTPSubmitLifecycle: submit over HTTP, poll the record, download
// the result, and check the dedupe and stats faces — the whole API
// round-trip a contigd client performs.
func TestHTTPSubmitLifecycle(t *testing.T) {
	s := fastSched(NewMemory())
	s.Start()
	defer s.Drain()
	srv := testServer(t, s)

	spec, _ := json.Marshal(tinySpec())
	body := fmt.Sprintf(`{"key": "http-1", "spec": %s}`, spec)
	resp, data := postJSON(t, srv.URL+"/api/campaigns", body, nil)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: %d %s", resp.StatusCode, data)
	}
	var sub struct {
		Created  bool     `json:"created"`
		Campaign Campaign `json:"campaign"`
	}
	if err := json.Unmarshal(data, &sub); err != nil {
		t.Fatal(err)
	}
	if !sub.Created || sub.Campaign.State != StateQueued {
		t.Fatalf("submit response: %s", data)
	}
	id := sub.Campaign.ID

	// Identical resubmit via the Idempotency-Key header: 200, same ID.
	resp, data = postJSON(t, srv.URL+"/api/campaigns",
		fmt.Sprintf(`{"spec": %s}`, spec), map[string]string{"Idempotency-Key": "http-1"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resubmit: %d %s", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &sub); err != nil {
		t.Fatal(err)
	}
	if sub.Created || sub.Campaign.ID != id {
		t.Fatalf("resubmit response: %s", data)
	}

	// Poll the record until done.
	deadline := time.Now().Add(30 * time.Second)
	var rec Campaign
	for {
		resp, data = getBody(t, srv.URL+"/api/campaigns/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("get: %d %s", resp.StatusCode, data)
		}
		if err := json.Unmarshal(data, &rec); err != nil {
			t.Fatal(err)
		}
		if rec.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign stuck in %s", rec.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if rec.State != StateDone {
		t.Fatalf("campaign %s: %s", rec.State, rec.Error)
	}

	// The downloaded result is the canonical merged bytes.
	resp, data = getBody(t, srv.URL+"/api/campaigns/"+id+"/result")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %d %s", resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("result content-type %q", ct)
	}
	if !bytes.Equal(data, referenceMerged(tinySpec())) {
		t.Fatal("downloaded result diverged from direct fleet run")
	}

	// List and stats see it.
	resp, data = getBody(t, srv.URL+"/api/campaigns")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(data), id) {
		t.Fatalf("list: %d %s", resp.StatusCode, data)
	}
	var st Stats
	_, data = getBody(t, srv.URL+"/api/stats")
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	if st.Submitted != 1 || st.Deduped != 1 || st.Completed != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestHTTPErrorContract: every typed rejection maps to its documented
// status code and, where promised, Retry-After.
func TestHTTPErrorContract(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Store: NewMemory(), QueueDepth: 1})
	// No Start: the queue fills and nothing runs.
	srv := testServer(t, s)
	spec, _ := json.Marshal(tinySpec())

	// 400: missing key.
	resp, _ := postJSON(t, srv.URL+"/api/campaigns", fmt.Sprintf(`{"spec": %s}`, spec), nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("no key: %d", resp.StatusCode)
	}
	// 400: invalid JSON.
	resp, _ = postJSON(t, srv.URL+"/api/campaigns", `{"key": `, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON: %d", resp.StatusCode)
	}
	// 400: bad spec.
	resp, _ = postJSON(t, srv.URL+"/api/campaigns", `{"key": "k", "spec": {"designs": ["beos"]}}`, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec: %d", resp.StatusCode)
	}

	// 201 then 409: key reused with a different spec.
	resp, _ = postJSON(t, srv.URL+"/api/campaigns", fmt.Sprintf(`{"key": "k1", "spec": %s}`, spec), nil)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("first: %d", resp.StatusCode)
	}
	resp, _ = postJSON(t, srv.URL+"/api/campaigns", `{"key": "k1", "spec": {"seed": 99}}`, nil)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("key reuse: %d", resp.StatusCode)
	}

	// 429 + Retry-After: queue full (depth 1, one queued above).
	resp, _ = postJSON(t, srv.URL+"/api/campaigns", fmt.Sprintf(`{"key": "k2", "spec": %s}`, spec), nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("queue full: %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	// 409: result before done, with the state in the body.
	id := CampaignID("k1")
	resp, data := getBody(t, srv.URL+"/api/campaigns/"+id+"/result")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("early result: %d %s", resp.StatusCode, data)
	}
	if !strings.Contains(string(data), string(StateQueued)) {
		t.Fatalf("early result body omits state: %s", data)
	}

	// 404: unknown campaign.
	resp, _ = getBody(t, srv.URL+"/api/campaigns/c0000000000000aa")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown get: %d", resp.StatusCode)
	}
	resp, _ = getBody(t, srv.URL+"/api/campaigns/c0000000000000aa/result")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown result: %d", resp.StatusCode)
	}

	// 503 + Retry-After: draining.
	s.Drain()
	resp, _ = postJSON(t, srv.URL+"/api/campaigns", fmt.Sprintf(`{"key": "k3", "spec": %s}`, spec), nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining: %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
}

// TestHTTPRejectsMachinesTooSmallToBoot: a Contiguitas cell whose
// default unmovable region (MemBytes/16) is under one 2 MiB pageblock
// cannot boot, and a size that is not a whole number of pageblocks
// cannot boot under any design. Both are 400 at admission, not a cell
// that crashes through its retry budget; 32 MiB is the smallest
// Contiguitas machine and is admitted.
func TestHTTPRejectsMachinesTooSmallToBoot(t *testing.T) {
	s := fastSched(NewMemory()) // not started: admitted campaigns only queue
	srv := testServer(t, s)
	for i, tc := range []struct {
		design string
		mem    uint64
		want   int
	}{
		{"contiguitas", 16, http.StatusBadRequest},
		{"contiguitas", 24, http.StatusBadRequest},
		{"contiguitas", 31, http.StatusBadRequest},
		{"linux", 31, http.StatusBadRequest},
		{"contiguitas", 32, http.StatusCreated},
		{"linux", 16, http.StatusCreated},
	} {
		spec := tinySpec()
		spec.Designs = []string{tc.design}
		spec.MemsMiB = []uint64{tc.mem}
		js, _ := json.Marshal(spec)
		body := fmt.Sprintf(`{"key": "small-%d", "spec": %s}`, i, js)
		resp, data := postJSON(t, srv.URL+"/api/campaigns", body, nil)
		if resp.StatusCode != tc.want {
			t.Fatalf("%s %d MiB: status %d (%s), want %d", tc.design, tc.mem, resp.StatusCode, data, tc.want)
		}
	}
}
