// The integrity scrubber: a background pass over everything the disk
// store holds at rest — sealed CTGCAMP records, journaled cell results
// and merged result files — re-verifying every digest the write path
// recorded.
//
// Verification on the read path catches corruption when someone asks;
// the scrubber catches it while nobody is asking, which is when media
// rot actually accumulates. Its contract:
//
//   - a corrupt file is never deleted: it is renamed into the store's
//     .quarantine/ directory under its original relative path, so the
//     evidence survives for post-mortem while the live tree stops
//     containing bytes that fail their own digests;
//   - every quarantine is surfaced: a typed ErrScrubQuarantine finding
//     in the report, an EvScrubCorrupt tracepoint, and a scrub_*
//     counter bump;
//   - corruption is healed where recompute can heal it: a campaign
//     whose cell or merged result was quarantined is re-queued, and the
//     scheduler recomputes exactly the missing pieces (surviving cells
//     are reused after passing their digest check), converging on
//     byte-identical results.
//
// A quarantined *record* cannot be healed — the record was the root of
// trust for its campaign — so it is reported as lost, which is still
// strictly better than trusting it.
package service

import (
	"errors"
	"fmt"
	"path/filepath"

	"contiguitas/internal/seal"
	"contiguitas/internal/telemetry"
	"contiguitas/internal/vfs"
)

// Scrub kinds, the first argument of EvScrubCorrupt. Kind 2 (a result
// cache entry) is retired, not reused.
const (
	scrubKindRecord = 0
	scrubKindCell   = 1
	scrubKindResult = 3
)

// ScrubConfig wires one scrub pass.
type ScrubConfig struct {
	// Disk is the store to scrub (required — Memory cannot rot).
	Disk *Disk
	// Sched, when set, receives heal requeues, counter updates, and
	// tracepoints.
	Sched *Scheduler
}

// Finding is one corrupt artifact the scrubber refused.
type Finding struct {
	// Rel is the path relative to the store root.
	Rel string
	// Err is the typed verification failure, wrapped in
	// ErrScrubQuarantine.
	Err error
}

// ScrubReport tallies one pass.
type ScrubReport struct {
	// Scanned counts artifacts whose digests were re-verified.
	Scanned int
	// Quarantined lists every corrupt artifact moved to quarantine.
	Quarantined []Finding
	// Requeued lists campaign IDs re-queued for recompute heal.
	Requeued []string
	// Lost lists campaign IDs whose sealed record itself was corrupt —
	// quarantined but unhealable.
	Lost []string
}

// String renders the report as the one-line summary contigd logs.
func (r *ScrubReport) String() string {
	return fmt.Sprintf("scrub: scanned=%d quarantined=%d requeued=%d lost=%d",
		r.Scanned, len(r.Quarantined), len(r.Requeued), len(r.Lost))
}

// Scrub runs one full integrity pass and returns its report. The pass
// itself never fails a healthy store: I/O errors reading the tree are
// reported as findings, not returned, so one unreadable file cannot
// hide the rest of the pass.
func Scrub(cfg ScrubConfig) (*ScrubReport, error) {
	if cfg.Disk == nil {
		return nil, errors.New("service: scrub requires a disk store")
	}
	rep := &ScrubReport{}
	s := &scrubber{cfg: cfg, rep: rep}

	ents, err := vfs.Active().ReadDir(filepath.Join(cfg.Disk.root, "campaigns"))
	if err != nil {
		return nil, err
	}
	for _, e := range ents {
		if e.IsDir() {
			s.scrubCampaign(e.Name())
		}
	}
	if cfg.Sched != nil {
		cfg.Sched.NoteScrub(rep)
	}
	return rep, nil
}

type scrubber struct {
	cfg ScrubConfig
	rep *ScrubReport
}

// emit forwards a tracepoint to the scheduler's storage ring when one
// is wired.
func (s *scrubber) emit(kind, cell, digest uint64) {
	if s.cfg.Sched != nil {
		s.cfg.Sched.emit(telemetry.EvScrubCorrupt, kind, cell, digest)
	}
}

// quarantine moves the file at rel aside into the quarantine directory
// and records the finding.
func (s *scrubber) quarantine(rel string, kind, cell, digest uint64, cause error) {
	ferr := fmt.Errorf("%w: %s: %v", ErrScrubQuarantine, rel, cause)
	if err := s.cfg.Disk.Quarantine(rel); err != nil {
		ferr = fmt.Errorf("%w (quarantine move failed: %v)", ferr, err)
	}
	s.rep.Quarantined = append(s.rep.Quarantined, Finding{Rel: rel, Err: ferr})
	s.emit(kind, cell, digest)
}

// scrubCampaign verifies one campaign directory: the sealed record,
// then — when the record is trustworthy — every journaled cell against
// its recorded digest and the merged result against ResultDigest.
func (s *scrubber) scrubCampaign(id string) {
	d := s.cfg.Disk
	recRel := filepath.Join("campaigns", id, recordFile)
	s.rep.Scanned++
	c, err := readRecord(filepath.Join(d.root, recRel))
	if errors.Is(err, ErrNotFound) {
		return // unacknowledged submission remnant; not an artifact
	}
	if err != nil {
		// The record is the root of trust; without it the campaign
		// cannot be healed, only preserved and reported.
		s.quarantine(recRel, scrubKindRecord, 0, 0, err)
		s.rep.Lost = append(s.rep.Lost, id)
		return
	}

	heal := false
	for i, dig := range c.CellDigests {
		if dig == "" {
			continue
		}
		data, ok, err := d.GetCell(id, i)
		if err != nil || !ok {
			continue // absent cells are recomputed by the scheduler anyway
		}
		s.rep.Scanned++
		if got := fmt.Sprintf("%016x", seal.Sum64(data)); got != dig {
			rel := filepath.Join("campaigns", id, fmt.Sprintf("cell-%03d.bin", i))
			s.quarantine(rel, scrubKindCell, uint64(i), seal.Sum64(data),
				fmt.Errorf("cell digest %s, recorded %s", got, dig))
			heal = true
		}
	}

	if c.State == StateDone && c.ResultDigest != "" {
		data, err := d.GetResult(id)
		if err == nil {
			s.rep.Scanned++
			if got := fmt.Sprintf("%016x", seal.Sum64(data)); got != c.ResultDigest {
				rel := filepath.Join("campaigns", id, resultFile)
				s.quarantine(rel, scrubKindResult, 0, seal.Sum64(data),
					fmt.Errorf("result digest %s, recorded %s", got, c.ResultDigest))
				heal = true
			}
		}
	}

	if heal && c.State == StateDone {
		// Recompute heal: put the campaign back in the queue. Surviving
		// cells are reused after passing their digest check; only the
		// quarantined pieces are recomputed, and canonical bytes make
		// the healed result byte-identical to the original.
		c.State = StateQueued
		c.Error = ""
		if err := d.Put(c); err == nil {
			s.rep.Requeued = append(s.rep.Requeued, id)
			if s.cfg.Sched != nil {
				s.cfg.Sched.Requeue(id)
			}
		}
	}
}
