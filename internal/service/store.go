// Store is the campaign journal: records, per-cell results, and merged
// results. Two backends implement it — memory.go (fast, nothing
// survives the process) and disk.go (every acknowledged write is on
// stable storage before the call returns). The contract test suite in
// store_test.go runs against both.
package service

// Store persists campaign records and results. Implementations must be
// safe for concurrent use; Put/PutCell/PutResult must be atomic with
// respect to readers (a Get never observes a half-written record).
type Store interface {
	// Put creates or replaces the record for c.ID. The caller's value
	// is copied; later mutations do not leak into the store.
	Put(c *Campaign) error
	// Get returns a copy of the record for id, or ErrNotFound.
	Get(id string) (*Campaign, error)
	// List returns copies of every record, sorted by ID ascending.
	List() ([]*Campaign, error)
	// PutCell journals one grid cell's canonical study bytes.
	PutCell(id string, cell int, data []byte) error
	// GetCell returns a cell's journaled bytes; ok is false when the
	// cell has not completed (not an error — it is how the scheduler
	// asks "is this cell already done?").
	GetCell(id string, cell int) (data []byte, ok bool, err error)
	// DropCell removes a cell's journaled bytes so the scheduler
	// recomputes them — the heal path for an entry integrity
	// verification refused. Dropping an absent cell is a no-op.
	DropCell(id string, cell int) error
	// PutResult journals the campaign's merged result bytes. Once it
	// succeeds the campaign's cells are never read again, so a backend
	// may drop them (GetCell then reports ok false).
	PutResult(id string, data []byte) error
	// GetResult returns the merged result, or ErrNotDone when absent.
	GetResult(id string) ([]byte, error)
	// Probe exercises the backend's write path end to end (durable
	// write plus read-back) and returns nil when it is healthy. The
	// degraded-mode scheduler polls it to decide when storage has
	// recovered.
	Probe() error
	// StateDir returns the directory fleet checkpoints for id should
	// live in, or "" when the backend is not durable (the scheduler
	// then runs without disk checkpoints — retries still work, process
	// kills lose the campaign's progress but never its admission).
	StateDir(id string) string
	// Close releases backend resources.
	Close() error
}
