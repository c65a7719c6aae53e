package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestRingDisabledNil(t *testing.T) {
	var r *Ring
	if r.Enabled() {
		t.Fatal("nil ring reports enabled")
	}
}

func TestRingEmitSnapshot(t *testing.T) {
	r := NewRing(100) // rounds up to 128
	if r.Cap() != 128 {
		t.Fatalf("cap = %d, want 128", r.Cap())
	}
	for i := uint64(0); i < 50; i++ {
		r.Emit(i, EvAlloc, i, i*2, i*3)
	}
	if r.Len() != 50 || r.Overwritten() != 0 {
		t.Fatalf("len=%d overwritten=%d, want 50, 0", r.Len(), r.Overwritten())
	}
	recs := r.Snapshot(nil)
	if len(recs) != 50 {
		t.Fatalf("snapshot len = %d", len(recs))
	}
	for i, rec := range recs {
		if rec.Tick != uint64(i) || rec.A != uint64(i) || rec.B != uint64(i*2) || rec.C != uint64(i*3) {
			t.Fatalf("record %d = %+v", i, rec)
		}
	}
}

func TestRingOverwrite(t *testing.T) {
	r := NewRing(64)
	for i := uint64(0); i < 200; i++ {
		r.Emit(i, EvFree, i, 0, 0)
	}
	if r.Len() != 64 {
		t.Fatalf("len = %d, want 64", r.Len())
	}
	if got := r.Overwritten(); got != 136 {
		t.Fatalf("overwritten = %d, want 136", got)
	}
	recs := r.Snapshot(nil)
	// Oldest retained record is 200-64 = 136.
	if recs[0].Tick != 136 || recs[len(recs)-1].Tick != 199 {
		t.Fatalf("snapshot range [%d, %d], want [136, 199]", recs[0].Tick, recs[len(recs)-1].Tick)
	}
	r.Reset()
	if r.Len() != 0 {
		t.Fatalf("len after reset = %d", r.Len())
	}
}

func TestEventMetaComplete(t *testing.T) {
	seen := map[string]EventID{}
	for id := EventID(0); id < NumEvents; id++ {
		m := Meta[id]
		if m.Name == "" {
			t.Fatalf("event %d has no name", id)
		}
		if prev, dup := seen[m.Name]; dup {
			t.Fatalf("events %d and %d share name %q", prev, id, m.Name)
		}
		seen[m.Name] = id
		if m.Track >= NumTracks {
			t.Fatalf("event %s has invalid track %d", m.Name, m.Track)
		}
		if m.DurArg < -1 || m.DurArg > 2 {
			t.Fatalf("event %s has invalid DurArg %d", m.Name, m.DurArg)
		}
		if m.DurArg >= 0 && m.Args[m.DurArg] == "" {
			t.Fatalf("event %s DurArg points at unused argument", m.Name)
		}
		if id.String() != m.Name {
			t.Fatalf("String() = %q, want %q", id.String(), m.Name)
		}
	}
}

func TestHistogramBuckets(t *testing.T) {
	// Small values land in exact buckets.
	for v := uint64(0); v < histLinearMax; v++ {
		if got := histBucketIndex(v); got != int(v) {
			t.Fatalf("bucket(%d) = %d", v, got)
		}
		if lo := HistBucketLo(int(v)); lo != v {
			t.Fatalf("lo(%d) = %d", v, lo)
		}
	}
	// Every bucket's lower bound maps back to that bucket, and bounds
	// are strictly increasing.
	prev := uint64(0)
	for i := 0; i < histBuckets; i++ {
		lo := HistBucketLo(i)
		if i > 0 && lo <= prev {
			t.Fatalf("bucket %d lo %d not > previous %d", i, lo, prev)
		}
		prev = lo
		if got := histBucketIndex(lo); got != i {
			t.Fatalf("bucket(lo(%d)=%d) = %d", i, lo, got)
		}
	}
	// Relative bucket width above the linear range is ≤ 1/16.
	for _, v := range []uint64{17, 100, 1000, 1 << 20, 1<<40 + 12345} {
		i := histBucketIndex(v)
		lo, hi := HistBucketLo(i), HistBucketLo(i+1)
		if v < lo || v >= hi {
			t.Fatalf("value %d outside bucket [%d, %d)", v, lo, hi)
		}
		if rel := float64(hi-lo) / float64(lo); rel > 1.0/16+1e-9 {
			t.Fatalf("bucket width %d/%d rel error %f > 1/16", hi-lo, lo, rel)
		}
	}
}

func TestHistogramStats(t *testing.T) {
	h := &Histogram{name: "t"}
	if h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram not zero")
	}
	for v := uint64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	if h.Count() != 1000 || h.Sum() != 500500 || h.Min() != 1 || h.Max() != 1000 {
		t.Fatalf("count=%d sum=%d min=%d max=%d", h.Count(), h.Sum(), h.Min(), h.Max())
	}
	if math.Abs(h.Mean()-500.5) > 1e-9 {
		t.Fatalf("mean = %f", h.Mean())
	}
	// Quantiles are bucket lower bounds: within 1/16 relative error.
	for _, q := range []float64{0.5, 0.9, 0.99} {
		exact := q * 1000
		got := float64(h.Quantile(q))
		if got > exact || got < exact*(1-1.0/8) {
			t.Fatalf("q%.2f = %f, exact %f", q, got, exact)
		}
	}
	if h.Quantile(-1) != h.Quantile(0) || h.Quantile(2) < h.Quantile(0.99) {
		t.Fatal("quantile clamping broken")
	}
}

func TestRegistryBindAndTags(t *testing.T) {
	reg := NewRegistry()
	var field uint64
	c := reg.BindCounter("bound", &field, TagRobustness)
	field += 7
	if c.Value() != 7 {
		t.Fatalf("bound counter = %d, want 7", c.Value())
	}
	c.Add(3)
	if field != 10 {
		t.Fatalf("field = %d, want 10", field)
	}
	own := reg.NewCounter("own")
	own.Inc()
	if own.Value() != 1 {
		t.Fatalf("own = %d", own.Value())
	}
	reg.GaugeFunc("g", func() float64 { return 2.5 })
	reg.NewHistogram("h")

	tagged := reg.Tagged(TagRobustness)
	if len(tagged) != 1 || tagged[0].Name() != "bound" {
		t.Fatalf("tagged = %v", tagged)
	}
	if reg.Counter("bound") != c || reg.Counter("missing") != nil {
		t.Fatal("Counter lookup broken")
	}
	if reg.Histogram("h") == nil || reg.Histogram("missing") != nil {
		t.Fatal("Histogram lookup broken")
	}

	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	reg.NewCounter("bound")
}

// sumJSONL decodes a metrics JSONL stream and returns base + Σ deltas
// per counter, checking structure along the way.
func sumJSONL(t *testing.T, data []byte) []uint64 {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	var header struct {
		Schema   string   `json:"schema"`
		Counters []string `json:"counters"`
		Gauges   []string `json:"gauges"`
		Base     []uint64 `json:"base"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &header); err != nil {
		t.Fatalf("header: %v", err)
	}
	if header.Schema != "contiguitas-metrics-v1" {
		t.Fatalf("schema = %q", header.Schema)
	}
	totals := append([]uint64(nil), header.Base...)
	for _, line := range lines[1:] {
		var row struct {
			Tick uint64    `json:"tick"`
			D    []uint64  `json:"d"`
			G    []float64 `json:"g"`
		}
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatalf("row %q: %v", line, err)
		}
		if len(row.D) != len(header.Counters) || len(row.G) != len(header.Gauges) {
			t.Fatalf("row width mismatch: %d/%d counters, %d/%d gauges",
				len(row.D), len(header.Counters), len(row.G), len(header.Gauges))
		}
		for i, d := range row.D {
			totals[i] += d
		}
	}
	return totals
}

func TestSamplerDeltasSumToTotals(t *testing.T) {
	reg := NewRegistry()
	var a, b uint64
	reg.BindCounter("a", &a)
	reg.BindCounter("b", &b)
	gv := 0.0
	reg.GaugeFunc("g", func() float64 { return gv })

	// Capacity 64 with 300 ticks forces ring eviction, exercising the
	// base-tracking path.
	s := NewSampler(reg, 64)
	for tick := uint64(0); tick < 300; tick++ {
		a += tick % 7
		b += 3
		gv = float64(tick)
		s.Sample(tick)
	}
	if s.Len() != 64 {
		t.Fatalf("len = %d", s.Len())
	}

	var buf bytes.Buffer
	if err := WriteMetricsJSONL(&buf, s); err != nil {
		t.Fatal(err)
	}
	totals := sumJSONL(t, buf.Bytes())
	if totals[0] != a || totals[1] != b {
		t.Fatalf("base+deltas = %v, want [%d %d]", totals, a, b)
	}
}

func TestSamplerNilEnabled(t *testing.T) {
	var s *Sampler
	if s.Enabled() {
		t.Fatal("nil sampler reports enabled")
	}
}

func TestWriteTimeline(t *testing.T) {
	r := NewRing(64)
	r.Emit(42, EvMigrateComplete, 512, 1024, 9000)
	r.Emit(43, EvResizeAbort, 777, 0, 0)
	var buf bytes.Buffer
	if err := WriteTimeline(&buf, r); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"[tick 000042]", "migration", "migrate-complete", "src=512", "dst=1024", "cycles=9000",
		"resize-abort", "boundary=777",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("timeline missing %q:\n%s", want, out)
		}
	}
	// Unused args must not appear.
	if strings.Count(out, "=") != 4 {
		t.Fatalf("unexpected arg count in timeline:\n%s", out)
	}
}

func TestWriteChromeTraceValidJSON(t *testing.T) {
	r := NewRing(64)
	r.Emit(1, EvMigrateComplete, 512, 1024, 9000)
	r.Emit(2, EvCompactScan, 9, 10, 512)
	r.Emit(3, EvResizeGrow, 100, 200, 100)
	r.Emit(4, EvAllocFail, 9, 0, 1)

	reg := NewRegistry()
	var a uint64
	reg.BindCounter("a", &a)
	reg.GaugeFunc("free_pages", func() float64 { return 123 })
	s := NewSampler(reg, 64)
	s.Sample(1)
	s.Sample(2)

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, r, s); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, buf.String())
	}

	// All tracks get thread-name metadata; the three timeline tracks the
	// acceptance criteria name must be distinct.
	names := map[string]bool{}
	var migTid, compTid, resTid float64
	for _, ev := range events {
		if ev["ph"] == "M" {
			args := ev["args"].(map[string]any)
			name := args["name"].(string)
			names[name] = true
			switch name {
			case "migration":
				migTid = ev["tid"].(float64)
			case "compaction":
				compTid = ev["tid"].(float64)
			case "resize":
				resTid = ev["tid"].(float64)
			}
		}
	}
	for _, want := range []string{"alloc", "reclaim", "compaction", "migration", "resize", "hw-mover"} {
		if !names[want] {
			t.Fatalf("missing track %q", want)
		}
	}
	if migTid == compTid || compTid == resTid || migTid == resTid {
		t.Fatal("migration/compaction/resize tracks share a tid")
	}

	// The migrate-complete event is a complete slice with a real duration
	// on the migration track; the gauge appears as a counter event.
	var sawSlice, sawCounter, sawInstant bool
	for _, ev := range events {
		switch {
		case ev["name"] == "migrate-complete" && ev["ph"] == "X":
			sawSlice = true
			if ev["tid"].(float64) != migTid {
				t.Fatal("migrate-complete not on migration track")
			}
			if dur := ev["dur"].(float64); math.Abs(dur-9000.0/CyclesPerMicro) > 1e-9 {
				t.Fatalf("dur = %f", dur)
			}
		case ev["name"] == "free_pages" && ev["ph"] == "C":
			sawCounter = true
		case ev["name"] == "alloc-fail" && ev["ph"] == "i":
			sawInstant = true
		}
	}
	if !sawSlice || !sawCounter || !sawInstant {
		t.Fatalf("slice=%v counter=%v instant=%v", sawSlice, sawCounter, sawInstant)
	}
}

func TestWriteChromeTraceCycleUnit(t *testing.T) {
	r := NewRing(64)
	r.Unit = "cycle"
	r.Emit(4000, EvMoverEnd, 512, 2000, 1)
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, r, nil); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if ev["name"] == "mover-end" {
			// 4000 cycles at 2000 cycles/µs = 2 µs.
			if ts := ev["ts"].(float64); math.Abs(ts-2.0) > 1e-9 {
				t.Fatalf("ts = %f, want 2", ts)
			}
			return
		}
	}
	t.Fatal("mover-end event missing")
}

func TestWriteHistograms(t *testing.T) {
	reg := NewRegistry()
	h := reg.NewHistogram("mig_sw_cycles")
	for i := uint64(0); i < 100; i++ {
		h.Observe(1000 + i)
	}
	var buf bytes.Buffer
	if err := WriteHistograms(&buf, reg, "cycles"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"mig_sw_cycles", "count=100", "p50=", "p99="} {
		if !strings.Contains(out, want) {
			t.Fatalf("histogram dump missing %q:\n%s", want, out)
		}
	}
}

func TestExportFiles(t *testing.T) {
	dir := t.TempDir()
	r := NewRing(64)
	r.Emit(1, EvAlloc, 1, 0, 0)
	reg := NewRegistry()
	var a uint64
	reg.BindCounter("a", &a)
	s := NewSampler(reg, 64)
	s.Sample(1)

	if err := ExportAll(
		ChromeTraceArtifact(dir+"/sub/trace.json", r, s),
		MetricsJSONLArtifact(dir+"/metrics.jsonl", s),
		TimelineArtifact(dir+"/timeline.txt", r),
	); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRingEmit(b *testing.B) {
	r := NewRing(8192)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Emit(uint64(i), EvAlloc, uint64(i), 9, 1)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := &Histogram{name: "b"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(uint64(i) * 37)
	}
}
