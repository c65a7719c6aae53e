// The in-memory store: the Store contract without durability. Used by
// tests and by a contigd started without -state-dir (which warns that
// campaigns will not survive a restart).
package service

import (
	"sort"
	"sync"
)

// Memory is an in-process Store. The zero value is not usable; call
// NewMemory.
type Memory struct {
	mu      sync.Mutex
	recs    map[string]*Campaign
	cells   map[string]map[int][]byte
	results map[string][]byte
}

// NewMemory returns an empty in-memory store.
func NewMemory() *Memory {
	return &Memory{
		recs:    make(map[string]*Campaign),
		cells:   make(map[string]map[int][]byte),
		results: make(map[string][]byte),
	}
}

func (m *Memory) Put(c *Campaign) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.recs[c.ID] = c.clone()
	return nil
}

func (m *Memory) Get(id string) (*Campaign, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.recs[id]
	if !ok {
		return nil, ErrNotFound
	}
	return c.clone(), nil
}

func (m *Memory) List() ([]*Campaign, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Campaign, 0, len(m.recs))
	for _, c := range m.recs {
		out = append(out, c.clone())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

func (m *Memory) PutCell(id string, cell int, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	cs := m.cells[id]
	if cs == nil {
		cs = make(map[int][]byte)
		m.cells[id] = cs
	}
	cs[cell] = append([]byte(nil), data...)
	return nil
}

func (m *Memory) GetCell(id string, cell int) ([]byte, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.cells[id][cell]
	if !ok {
		return nil, false, nil
	}
	return append([]byte(nil), data...), true, nil
}

func (m *Memory) DropCell(id string, cell int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.cells[id], cell)
	return nil
}

// PutResult stores the merged result and drops the campaign's cell
// journal: only the scheduler reads cells, and only before the result
// exists, so a finished campaign keeps half the bytes.
func (m *Memory) PutResult(id string, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.results[id] = append([]byte(nil), data...)
	delete(m.cells, id)
	return nil
}

func (m *Memory) GetResult(id string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.results[id]
	if !ok {
		return nil, ErrNotDone
	}
	return append([]byte(nil), data...), nil
}

// StateDir is empty: an in-memory campaign has no durable checkpoints.
func (m *Memory) StateDir(string) string { return "" }

// Probe always succeeds: memory cannot fail the way a disk does.
func (m *Memory) Probe() error { return nil }

func (m *Memory) Close() error { return nil }
