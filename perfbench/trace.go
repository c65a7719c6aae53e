package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"contiguitas/internal/fleet"
	"contiguitas/internal/resultcache"
	"contiguitas/internal/service"
	"contiguitas/internal/supervise"
	"contiguitas/internal/vfs"
)

// span is one timed call into a layer. Spans of one campaign share its
// id; cell and shard are -1 where they do not apply.
type span struct {
	Name     string `json:"name"`
	Campaign string `json:"campaign,omitempty"`
	Cell     int    `json:"cell"`
	Shard    int    `json:"shard"`
	StartNs  int64  `json:"start_ns"`
	DurNs    int64  `json:"dur_ns"`
}

// tracer keeps spans and per-metric samples in memory; spans are written
// out once, when the run ends.
type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	samples map[string][]float64
	counts  map[string]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), samples: map[string][]float64{}, counts: map[string]float64{}}
}

// span records one call that started at start and ran for d, and adds
// its duration to metric (in the metric's unit: ms, us or s) when
// metric is not empty.
func (t *tracer) span(name, metric, campaign string, cell, shard int, start time.Time, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Campaign: campaign, Cell: cell, Shard: shard,
		StartNs: start.Sub(t.t0).Nanoseconds(), DurNs: d.Nanoseconds()})
	if metric != "" {
		t.samples[metric] = append(t.samples[metric], scaled(metric, d))
	}
}

// add records a value sample for metric.
func (t *tracer) add(metric string, v float64) {
	t.mu.Lock()
	t.samples[metric] = append(t.samples[metric], v)
	t.mu.Unlock()
}

// count adds to a counter.
func (t *tracer) count(name string, v float64) {
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

func (t *tracer) get(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}

// medianOf is the median of a metric's samples.
func (t *tracer) medianOf(metric string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return median(t.samples[metric])
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// scaled converts a duration to the unit a metric name ends in.
func scaled(metric string, d time.Duration) float64 {
	switch {
	case strings.HasSuffix(metric, "_ns"):
		return float64(d.Nanoseconds())
	case strings.HasSuffix(metric, "_us"):
		return float64(d.Nanoseconds()) / 1e3
	case strings.HasSuffix(metric, "_ms"):
		return float64(d.Nanoseconds()) / 1e6
	default:
		return d.Seconds()
	}
}

// timedStore decorates a service.Store: record writes and cell writes
// are timed, and the queued -> running transition of each record gives
// the time a campaign waited for a worker.
type timedStore struct {
	service.Store
	tr       *tracer
	mu       sync.Mutex
	queuedAt map[string]time.Time
}

func newTimedStore(s service.Store, tr *tracer) *timedStore {
	return &timedStore{Store: s, tr: tr, queuedAt: map[string]time.Time{}}
}

func (s *timedStore) Put(c *service.Campaign) error {
	t0 := time.Now()
	err := s.Store.Put(c)
	s.tr.span("service.Store.Put", "service.store_put_ms", c.ID, -1, -1, t0, time.Since(t0))
	s.mu.Lock()
	defer s.mu.Unlock()
	switch c.State {
	case service.StateQueued:
		if _, ok := s.queuedAt[c.ID]; !ok {
			s.queuedAt[c.ID] = t0
		}
	case service.StateRunning:
		if q, ok := s.queuedAt[c.ID]; ok {
			s.tr.span("service.queue_wait", "service.queue_wait_ms", c.ID, -1, -1, q, t0.Sub(q))
			delete(s.queuedAt, c.ID)
		}
	}
	return err
}

func (s *timedStore) PutCell(id string, cell int, data []byte) error {
	t0 := time.Now()
	err := s.Store.PutCell(id, cell, data)
	s.tr.span("service.Store.PutCell", "service.store_cell_ms", id, cell, -1, t0, time.Since(t0))
	return err
}

func (s *timedStore) PutResult(id string, data []byte) error {
	t0 := time.Now()
	err := s.Store.PutResult(id, data)
	s.tr.span("service.Store.PutResult", "", id, -1, -1, t0, time.Since(t0))
	return err
}

// shardSink is a fleet.ProgressSink that times each shard from its first
// dispatch to done and counts attempts per shard.
type shardSink struct {
	tr       *tracer
	campaign string
	cell     int
	mu       sync.Mutex
	start    map[int]time.Time
}

func newShardSink(tr *tracer, campaign string, cell int) *shardSink {
	return &shardSink{tr: tr, campaign: campaign, cell: cell, start: map[int]time.Time{}}
}

func (s *shardSink) ObserveCampaign(int) {}

func (s *shardSink) ObserveAttempt(shard, _ int) {
	s.mu.Lock()
	if _, ok := s.start[shard]; !ok {
		s.start[shard] = time.Now()
	}
	s.mu.Unlock()
	s.tr.count("supervise.attempts", 1)
}

func (s *shardSink) ObserveEvent(ev supervise.Event) {
	if ev.Kind != supervise.EventDone {
		return
	}
	s.mu.Lock()
	t0, ok := s.start[ev.Shard]
	s.mu.Unlock()
	if ok {
		s.tr.span("fleet.shard", "fleet.shard_s", s.campaign, s.cell, ev.Shard, t0, time.Since(t0))
		s.tr.count("supervise.shards", 1)
	}
}

func (s *shardSink) ObserveEnd(*supervise.Report)        {}
func (s *shardSink) ObserveUnits(int, uint64, uint64)    {}
func (s *shardSink) ObserveCache(uint64, uint64, uint64) {}

// sinkFactory hands deriveCampaign one shardSink per cell.
func sinkFactory(tr *tracer, campaign string) func(int) fleet.ProgressSink {
	return func(cell int) fleet.ProgressSink { return newShardSink(tr, campaign, cell) }
}

// timedCache decorates a resultcache.Cache with get/put timing and
// hit, miss and reject counts.
type timedCache struct {
	resultcache.Cache
	tr *tracer
	// getMetric receives Get times ("" keeps them out of the metrics,
	// as during a fill, where every Get is a miss).
	getMetric string
}

func (c timedCache) Get(key uint64) ([]byte, error) {
	t0 := time.Now()
	p, err := c.Cache.Get(key)
	c.tr.span("resultcache.Get", c.getMetric, "", -1, -1, t0, time.Since(t0))
	switch {
	case err == nil:
		c.tr.count("resultcache.hits", 1)
	case resultcache.IsReject(err):
		c.tr.count("resultcache.rejects", 1)
	default:
		c.tr.count("resultcache.misses", 1)
	}
	return p, err
}

func (c timedCache) Put(key uint64, payload []byte) error {
	t0 := time.Now()
	err := c.Cache.Put(key, payload)
	c.tr.span("resultcache.Put", "resultcache.put_us", "", -1, -1, t0, time.Since(t0))
	return err
}

// countingFS decorates the vfs seam: it counts bytes written and times
// every fsync (file and directory).
type countingFS struct {
	vfs.FS
	tr *tracer
}

type countingFile struct {
	vfs.File
	tr *tracer
}

func (f countingFS) CreateTemp(dir, pattern string) (vfs.File, error) {
	file, err := f.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return countingFile{File: file, tr: f.tr}, nil
}

func (f countingFS) SyncDir(dir string) error {
	t0 := time.Now()
	err := f.FS.SyncDir(dir)
	f.tr.span("vfs.SyncDir", "vfs.fsync_ms", "", -1, -1, t0, time.Since(t0))
	f.tr.count("vfs.fsyncs", 1)
	return err
}

func (f countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.tr.count("vfs.bytes_written", float64(n))
	return n, err
}

func (f countingFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	f.tr.span("vfs.File.Sync", "vfs.fsync_ms", "", -1, -1, t0, time.Since(t0))
	f.tr.count("vfs.fsyncs", 1)
	return err
}
