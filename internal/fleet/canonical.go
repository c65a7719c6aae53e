// Canonical study serialisation: the byte-exact identity every
// robustness gate in this repository compares on. Two studies are equal
// iff their canonical bytes are — a stronger check than comparing
// printed CDFs, and the contract behind "byte-identical across worker
// counts, crashes, retries, checkpoint/resume, and process restarts"
// (the fleetscan -soak gate, the service layer's result files, and the
// CI service-soak job all cmp these bytes).
package fleet

import (
	"fmt"
	"math"

	"contiguitas/internal/mem"
	"contiguitas/internal/seal"
)

// CanonicalBytes serialises every sample field in canonical order (the
// per-order values in mem.ScanOrders order), independent of how the
// study was scheduled or resumed.
func CanonicalBytes(s *Study) []byte { return encodeSamples(s.Samples) }

// encodeSamples is the canonical sample encoding: the sample count,
// then per sample the NUL-terminated profile name and every numeric
// field as a little-endian u64 (floats by their bits). It is also the
// payload of result-cache entries and shard checkpoints.
func encodeSamples(samples []Sample) []byte {
	var w seal.Writer
	writeSamples(&w, samples)
	return w.Body()
}

// writeSamples writes the canonical encoding of samples to w.
func writeSamples(w *seal.Writer, samples []Sample) {
	w.U64(uint64(len(samples)))
	for i := range samples {
		smp := &samples[i]
		w.CString(smp.Profile)
		w.U64(smp.Uptime, smp.FreePages, smp.Free2MBlocks, math.Float64bits(smp.UnmovFrameFrac))
		for i := range smp.FreeContigFrac {
			w.U64(math.Float64bits(smp.FreeContigFrac[i]), math.Float64bits(smp.UnmovBlockFrac[i]))
		}
		w.U64(smp.SourceBreakdown[:]...)
	}
}

// minSampleBytes is the encoded size of a sample with an empty profile.
const minSampleBytes = 1 + 8*(4+2*mem.NumScanOrders+mem.NumSources)

// DecodeCanonical is the inverse of CanonicalBytes. It refuses
// truncation, a profile name without its NUL, and trailing bytes.
func DecodeCanonical(data []byte) ([]Sample, error) {
	r := seal.NewReader(data)
	samples := make([]Sample, r.Count(minSampleBytes))
	if err := readSamples(r, samples); err != nil {
		return nil, err
	}
	return samples, nil
}

// decodeSamplesInto decodes a canonical encoding of exactly len(dst)
// samples into dst, refusing any other count as well as everything
// DecodeCanonical refuses. On a refusal dst holds no decoded sample.
func decodeSamplesInto(dst []Sample, data []byte) error {
	r := seal.NewReader(data)
	if n := r.U64(); n != uint64(len(dst)) {
		return fmt.Errorf("fleet: canonical samples: %d samples, want %d", n, len(dst))
	}
	err := readSamples(r, dst)
	if err != nil {
		clear(dst)
	}
	return err
}

// readSamples reads len(dst) samples from r, then requires r to be
// exhausted.
func readSamples(r *seal.Reader, dst []Sample) error {
	for i := range dst {
		smp := &dst[i]
		*smp = Sample{Profile: r.CString(), Uptime: r.U64(), FreePages: r.U64(), Free2MBlocks: r.U64(),
			UnmovFrameFrac: math.Float64frombits(r.U64())}
		for j := range smp.FreeContigFrac {
			smp.FreeContigFrac[j] = math.Float64frombits(r.U64())
			smp.UnmovBlockFrac[j] = math.Float64frombits(r.U64())
		}
		for j := range smp.SourceBreakdown {
			smp.SourceBreakdown[j] = r.U64()
		}
	}
	if err := r.Done(); err != nil {
		return fmt.Errorf("fleet: canonical samples: %w", err)
	}
	return nil
}

// CanonicalDigest returns the FNV-1a digest of CanonicalBytes — the
// compact result identity stored in service campaign records — hashed
// as it is encoded, without building the bytes.
func CanonicalDigest(s *Study) uint64 {
	w := seal.HashWriter()
	writeSamples(&w, s.Samples)
	return w.Sum64()
}
