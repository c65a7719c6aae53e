// The durable store: one directory per campaign holding a CTGCAMP
// sealed record, the fleet's own CTGMANI/CTGSHRD checkpoint files, the
// per-cell canonical result journal, and the merged result.
//
//	<root>/campaigns/<id>/
//	    record.ctgjob        CTGCAMP sealed record (campaign JSON)
//	    cell-000/            fleet state dir for grid cell 0
//	        campaign.ctgmani
//	        shard-000.ctgshrd ...
//	    cell-000.bin         cell 0's canonical study bytes (durable ⇒ done)
//	    result.bin           merged result (durable ⇒ campaign done)
//	<root>/.quarantine/      scrubber-quarantined corrupt files, mirrored
//	                         under their original relative paths
//	<root>/probe.bin         degraded-mode health probe scratch file
//
// Every write goes through the vfs durable-write discipline (temp file,
// fsync, rename, parent-dir fsync), so a file's existence is its
// completion certificate: recovery never has to guess whether
// cell-000.bin is whole. The record is a sealed record (internal/seal)
// whose body is the Campaign's JSON encoding; a torn or edited record
// fails the frame digest and decodes to ErrCorruptRecord, never to a
// silently wrong campaign. All I/O goes
// through the active FS, putting every store operation under
// storage-fault injection.
package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"
	"sync"

	"contiguitas/internal/seal"
	"contiguitas/internal/vfs"
)

// Store layout constants.
const (
	recordFile = "record.ctgjob"
	resultFile = "result.bin"
	// QuarantineDir is the directory (under the store root) corrupt
	// files are moved into by the scrubber, preserving their relative
	// paths for post-mortem inspection.
	QuarantineDir = ".quarantine"
	// probeFile is the scratch file Probe writes; its .bin suffix keeps
	// it inside the path filter chaos scenarios use for the cell/result
	// journal, so a probe honestly reports the journal's health.
	probeFile = "probe.bin"
)

// recordFormat frames campaign records; version 2 is the sealed-record
// frame around the campaign's JSON.
var recordFormat = seal.Format{Magic: "CTGCAMP", Version: 2, Err: ErrCorruptRecord}

// Disk is the durable Store backend rooted at a directory.
type Disk struct {
	root string
	// mu serialises multi-file operations; individual writes are atomic
	// on their own, but List-while-Put must not see a half-created
	// campaign directory set.
	mu sync.Mutex
}

// OpenDisk opens (creating if needed) a durable store rooted at root.
func OpenDisk(root string) (*Disk, error) {
	if err := vfs.Active().MkdirAll(filepath.Join(root, "campaigns"), 0o755); err != nil {
		return nil, err
	}
	// Make the root's own directory entries durable: a store opened,
	// populated, and killed must not lose the campaigns/ dir itself.
	if err := vfs.Active().SyncDir(root); err != nil {
		return nil, err
	}
	return &Disk{root: root}, nil
}

// Root returns the directory the store is rooted at.
func (d *Disk) Root() string { return d.root }

func (d *Disk) dir(id string) string {
	return filepath.Join(d.root, "campaigns", id)
}

func (d *Disk) cellPath(id string, cell int) string {
	return filepath.Join(d.dir(id), fmt.Sprintf("cell-%03d.bin", cell))
}

// EncodeRecord seals a campaign into its CTGCAMP record bytes. It
// refuses a campaign whose record DecodeRecord would refuse, so every
// record the store writes reads back.
func EncodeRecord(c *Campaign) ([]byte, error) {
	body, err := json.Marshal(c)
	if err == nil {
		_, err = decodeBody(body)
	}
	if err != nil {
		return nil, fmt.Errorf("service: encode campaign %s: %w", c.ID, err)
	}
	return recordFormat.Seal(body), nil
}

// DecodeRecord verifies and decodes CTGCAMP record bytes. Any
// truncation, bit flip, appended byte, or edit fails the frame and maps
// to ErrCorruptRecord — arbitrary input must never panic or decode into
// a silently wrong campaign (FuzzSealedRecords holds it to that).
func DecodeRecord(data []byte) (*Campaign, error) {
	body, err := recordFormat.Open(data)
	if err != nil {
		return nil, err
	}
	return decodeBody(body)
}

// decodeBody decodes a record body that must be exactly what
// EncodeRecord writes. encoding/json also accepts keys in any letter
// case, unknown keys and free whitespace, and it writes a string that
// is not valid UTF-8 as an escape that decodes to U+FFFD, so a body
// that decodes is not yet proof of that.
func decodeBody(body []byte) (*Campaign, error) {
	c := &Campaign{}
	if err := json.Unmarshal(body, c); err != nil {
		return nil, fmt.Errorf("%w: decode: %v", ErrCorruptRecord, err)
	}
	if canon, err := json.Marshal(c); err != nil || !bytes.Equal(canon, body) {
		return nil, fmt.Errorf("%w: decode: body is not the record's canonical encoding", ErrCorruptRecord)
	}
	return c, nil
}

func (d *Disk) Put(c *Campaign) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	data, err := EncodeRecord(c)
	if err != nil {
		return err
	}
	return vfs.WriteFileDurable(vfs.Active(), filepath.Join(d.dir(c.ID), recordFile), data)
}

func (d *Disk) Get(id string) (*Campaign, error) {
	return readRecord(filepath.Join(d.dir(id), recordFile))
}

func readRecord(path string) (*Campaign, error) {
	c, err := seal.ReadFile(path, DecodeRecord)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, ErrNotFound
	}
	return c, err
}

// List walks the campaigns directory. A directory without a record file
// is skipped: the durable-write order (record first, then enqueue)
// means such a directory belongs to a submission that was killed before
// it was ever acknowledged — to the client it never happened.
func (d *Disk) List() ([]*Campaign, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	entries, err := vfs.Active().ReadDir(filepath.Join(d.root, "campaigns"))
	if err != nil {
		return nil, err
	}
	var out []*Campaign
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		c, err := readRecord(filepath.Join(d.dir(e.Name()), recordFile))
		if errors.Is(err, ErrNotFound) {
			continue
		}
		if err != nil {
			// A corrupt record is a finding, not a skip: recovery must
			// not silently drop an acknowledged campaign.
			return nil, err
		}
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

func (d *Disk) PutCell(id string, cell int, data []byte) error {
	return vfs.WriteFileDurable(vfs.Active(), d.cellPath(id, cell), data)
}

func (d *Disk) GetCell(id string, cell int) ([]byte, bool, error) {
	data, err := vfs.Active().ReadFile(d.cellPath(id, cell))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	return data, true, nil
}

// DropCell removes a cell's journal entry so the scheduler recomputes
// it — the heal path for a cell the scrubber or the merge-time digest
// check refused.
func (d *Disk) DropCell(id string, cell int) error {
	err := vfs.Active().Remove(d.cellPath(id, cell))
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	return err
}

func (d *Disk) PutResult(id string, data []byte) error {
	return vfs.WriteFileDurable(vfs.Active(), filepath.Join(d.dir(id), resultFile), data)
}

func (d *Disk) GetResult(id string) ([]byte, error) {
	data, err := vfs.Active().ReadFile(filepath.Join(d.dir(id), resultFile))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, ErrNotDone
	}
	return data, err
}

// Probe exercises the store's write path end to end: a durable write of
// a small scratch file followed by a read-back. A healthy return means
// the backend can currently complete the same discipline campaign
// writes need; the degraded-mode scheduler polls it to decide when to
// lift read-only mode.
func (d *Disk) Probe() error {
	path := filepath.Join(d.root, probeFile)
	want := []byte("contigd-probe")
	if err := vfs.WriteFileDurable(vfs.Active(), path, want); err != nil {
		return err
	}
	got, err := vfs.Active().ReadFile(path)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("service: probe read-back mismatch at %s", path)
	}
	return nil
}

// Quarantine moves the file at src into the quarantine directory under
// rel — its path relative to the store root, or cache/<name> for a
// result-cache entry. The move is a rename — the corrupt bytes are
// preserved for post-mortem, and the original path stops existing so
// recovery and the scheduler see a plain missing file instead of a
// corrupt one.
func (d *Disk) Quarantine(src, rel string) error {
	dst := filepath.Join(d.root, QuarantineDir, rel)
	if err := vfs.Active().MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return err
	}
	return vfs.Active().Rename(src, dst)
}

func (d *Disk) StateDir(id string) string { return d.dir(id) }

func (d *Disk) Close() error { return nil }
