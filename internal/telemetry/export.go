package telemetry

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"

	"contiguitas/internal/vfs"
)

// Timestamp conventions for the Chrome trace exporter. One simulator
// tick models one millisecond of wall time; cycle-stamped arguments and
// cycle-unit rings are converted at a nominal 2 GHz.
const (
	// TickMicros is the trace-time width of one tick, in microseconds.
	TickMicros = 1000
	// CyclesPerMicro converts cycle counts to microseconds (2 GHz).
	CyclesPerMicro = 2000
)

// WriteMetricsJSONL writes the sampler's time series as JSON Lines: a
// header object carrying the schema (counter and gauge names, and the
// base cumulative counter values preceding the oldest retained row),
// then one object per tick with per-tick counter deltas and gauge
// values. The contract exporters and tests rely on:
//
//	header.base[i] + Σ rows.d[i] == end-of-run counter total
//
// even when the sampler ring overwrote early history.
func WriteMetricsJSONL(w io.Writer, s *Sampler) error {
	bw := bufio.NewWriter(w)
	reg := s.Registry()

	bw.WriteString(`{"schema":"contiguitas-metrics-v1","counters":[`)
	for i, c := range reg.Counters() {
		if i > 0 {
			bw.WriteByte(',')
		}
		writeJSONString(bw, c.Name())
	}
	bw.WriteString(`],"gauges":[`)
	for i, g := range reg.Gauges() {
		if i > 0 {
			bw.WriteByte(',')
		}
		writeJSONString(bw, g.Name())
	}
	bw.WriteString(`],"base":[`)
	for i, v := range s.Base() {
		if i > 0 {
			bw.WriteByte(',')
		}
		bw.WriteString(strconv.FormatUint(v, 10))
	}
	bw.WriteString("]}\n")

	prev := append([]uint64(nil), s.Base()...)
	s.Rows(func(row *SampleRow) {
		bw.WriteString(`{"tick":`)
		bw.WriteString(strconv.FormatUint(row.Tick, 10))
		bw.WriteString(`,"d":[`)
		for i, v := range row.Counters {
			if i > 0 {
				bw.WriteByte(',')
			}
			bw.WriteString(strconv.FormatUint(v-prev[i], 10))
			prev[i] = v
		}
		bw.WriteString(`],"g":[`)
		for i, v := range row.Gauges {
			if i > 0 {
				bw.WriteByte(',')
			}
			bw.WriteString(strconv.FormatFloat(v, 'g', 6, 64))
		}
		bw.WriteString("]}\n")
	})
	return bw.Flush()
}

// WriteTimeline writes the ring as a stable, greppable text timeline,
// one event per line:
//
//	[tick 000042] migration       migrate-complete src=512 dst=1024 cycles=9000
//
// Column 1 is the timestamp (the ring's Unit), column 2 the track,
// column 3 the event name, then name=value args in schema order.
func WriteTimeline(w io.Writer, r *Ring) error {
	bw := bufio.NewWriter(w)
	if r.Overwritten() > 0 {
		fmt.Fprintf(bw, "# ring overwrote %d earlier records\n", r.Overwritten())
	}
	recs := r.Snapshot(nil)
	for i := range recs {
		rec := &recs[i]
		m := &Meta[rec.ID]
		fmt.Fprintf(bw, "[%s %06d] %-10s %-18s", r.Unit, rec.Tick, m.Track, m.Name)
		for ai, arg := range [3]uint64{rec.A, rec.B, rec.C} {
			if m.Args[ai] == "" {
				continue
			}
			fmt.Fprintf(bw, " %s=%d", m.Args[ai], arg)
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// WriteChromeTrace writes the ring — and, when a sampler is supplied,
// its gauge series as counter tracks — as Chrome trace_event JSON
// (JSON Array Format) loadable in Perfetto and chrome://tracing. Each
// telemetry Track renders as its own named thread; events whose schema
// marks a cycles argument (DurArg) render as complete ("X") slices with
// real durations, the rest as instants.
func WriteChromeTrace(w io.Writer, r *Ring, s *Sampler) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("[\n")
	first := true
	emit := func() *bufio.Writer {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		return bw
	}

	// Thread-name metadata: one Perfetto track per telemetry Track.
	for t := Track(0); t < NumTracks; t++ {
		fmt.Fprintf(emit(),
			`{"ph":"M","pid":1,"tid":%d,"name":"thread_name","args":{"name":%q}}`,
			int(t)+1, t.String())
	}

	// Tick→µs conversion depends on the ring's unit.
	ts := func(tick uint64) float64 {
		if r.Unit == "cycle" {
			return float64(tick) / CyclesPerMicro
		}
		return float64(tick) * TickMicros
	}

	recs := r.Snapshot(nil)
	for i := range recs {
		rec := &recs[i]
		m := &Meta[rec.ID]
		bw := emit()
		fmt.Fprintf(bw, `{"name":%q,"pid":1,"tid":%d,"ts":%.3f`,
			m.Name, int(m.Track)+1, ts(rec.Tick))
		if m.DurArg >= 0 {
			dur := float64([3]uint64{rec.A, rec.B, rec.C}[m.DurArg]) / CyclesPerMicro
			if dur < 1 {
				dur = 1 // keep slices visible at any zoom
			}
			fmt.Fprintf(bw, `,"ph":"X","dur":%.3f`, dur)
		} else {
			bw.WriteString(`,"ph":"i","s":"t"`)
		}
		bw.WriteString(`,"args":{`)
		argFirst := true
		for ai, arg := range [3]uint64{rec.A, rec.B, rec.C} {
			if m.Args[ai] == "" {
				continue
			}
			if !argFirst {
				bw.WriteByte(',')
			}
			argFirst = false
			fmt.Fprintf(bw, `%q:%d`, m.Args[ai], arg)
		}
		bw.WriteString("}}")
	}

	// Gauge time series as Chrome counter ("C") tracks.
	if s.Enabled() {
		gauges := s.Registry().Gauges()
		s.Rows(func(row *SampleRow) {
			for gi, v := range row.Gauges {
				fmt.Fprintf(emit(),
					`{"name":%q,"ph":"C","pid":1,"ts":%.3f,"args":{"value":%g}}`,
					gauges[gi].Name(), float64(row.Tick)*TickMicros, v)
			}
		})
	}

	bw.WriteString("\n]\n")
	return bw.Flush()
}

// WriteHistograms writes every registered histogram as a human-readable
// latency breakdown: count/mean/min/max, key quantiles, and the
// non-empty log-linear buckets — the Fig. 13-style artifact.
func WriteHistograms(w io.Writer, reg *Registry, unit string) error {
	bw := bufio.NewWriter(w)
	for _, h := range reg.Histograms() {
		fmt.Fprintf(bw, "%s (unit=%s): count=%d mean=%.1f min=%d max=%d",
			h.Name(), unit, h.Count(), h.Mean(), h.Min(), h.Max())
		if h.Count() > 0 {
			fmt.Fprintf(bw, " p50=%d p90=%d p99=%d",
				h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99))
		}
		bw.WriteByte('\n')
		for _, b := range h.Buckets(nil) {
			fmt.Fprintf(bw, "  %12d+ %d\n", b[0], b[1])
		}
	}
	return bw.Flush()
}

// writeJSONString writes s as a JSON string. Metric and event names are
// plain identifiers; %q's escaping is sufficient.
func writeJSONString(w *bufio.Writer, s string) {
	fmt.Fprintf(w, "%q", s)
}

// writeFile writes path atomically and durably (making parent
// directories) through the active FS: fn streams into a same-directory
// temp file that is fsynced and renamed over path only after a
// successful close, then the parent directory is fsynced so the rename
// survives power loss. A crash or error mid-export can therefore never
// leave a truncated, unparseable artifact at the target path — at worst
// the previous complete version (or nothing) remains. internal/vfs
// carries the discipline (telemetry cannot import snapshot: the kernel
// imports telemetry and snapshot imports the kernel), which also puts
// every exporter under storage-fault injection.
func writeFile(path string, fn func(io.Writer) error) error {
	return vfs.WriteDurable(vfs.Active(), path, fn)
}

// Artifact is one pending export: a target path and the writer that
// produces its bytes. A zero Path marks the artifact disabled (ExportAll
// skips it), so optional outputs thread through uniformly.
type Artifact struct {
	Path  string
	write func(io.Writer) error
}

// ChromeTraceArtifact writes the ring, and the sampler's gauge series,
// as Chrome trace_event JSON (WriteChromeTrace).
func ChromeTraceArtifact(path string, r *Ring, s *Sampler) Artifact {
	return Artifact{path, func(w io.Writer) error { return WriteChromeTrace(w, r, s) }}
}

// MetricsJSONLArtifact writes the sampler's series as JSON Lines
// (WriteMetricsJSONL).
func MetricsJSONLArtifact(path string, s *Sampler) Artifact {
	return Artifact{path, func(w io.Writer) error { return WriteMetricsJSONL(w, s) }}
}

// TimelineArtifact writes the ring's text timeline (WriteTimeline).
func TimelineArtifact(path string, r *Ring) Artifact {
	return Artifact{path, func(w io.Writer) error { return WriteTimeline(w, r) }}
}

// ExportAll flushes every artifact, attempting each one regardless of
// earlier failures, and returns the per-path-annotated errors joined.
// writeFile already guarantees no artifact is ever left truncated; this
// guarantees a failure on one path can no longer leave a *sibling*
// artifact unwritten — the run's other outputs still land, and the
// caller gets one error naming exactly what did not.
func ExportAll(artifacts ...Artifact) error {
	var errs []error
	for _, a := range artifacts {
		if a.Path == "" {
			continue
		}
		if err := writeFile(a.Path, a.write); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", a.Path, err))
		}
	}
	return errors.Join(errs...)
}
