package hw

// SetAssoc is the flat tag store behind every set-associative structure
// of the model: the private L1/L2 caches, the LLC slices and the TLBs.
// Way w of set s lives at index s*ways+w of Tags, of LRU and of the
// owner's parallel payload array. A tag is key+1, so 0 marks an invalid
// way and no separate valid bit exists; a lookup scans one set's run of
// adjacent tags.
type SetAssoc struct {
	Tags []uint64
	LRU  []uint64
	ways int
}

// NewSetAssoc allocates sets*ways invalid ways.
func NewSetAssoc(sets, ways int) SetAssoc {
	return SetAssoc{
		Tags: make([]uint64, sets*ways),
		LRU:  make([]uint64, sets*ways),
		ways: ways,
	}
}

// Find returns the index of key's way in set, or -1 when it is absent.
func (a *SetAssoc) Find(set int, key uint64) int {
	base := set * a.ways
	tag := key + 1
	for w, t := range a.Tags[base : base+a.ways] {
		if t == tag {
			return base + w
		}
	}
	return -1
}

// Victim returns the index of the way a fill of set replaces: the first
// invalid way, otherwise the way with the strictly lowest LRU stamp,
// the earliest in way order on a tie.
func (a *SetAssoc) Victim(set int) int {
	base := set * a.ways
	tags := a.Tags[base : base+a.ways]
	lru := a.LRU[base : base+a.ways]
	victim := 0
	for w, t := range tags {
		if t == 0 {
			return base + w
		}
		if lru[w] < lru[victim] {
			victim = w
		}
	}
	return base + victim
}

// Key returns the key held by the valid way at index i.
func (a *SetAssoc) Key(i int) uint64 { return a.Tags[i] - 1 }

// Valid reports whether the way at index i holds a key.
func (a *SetAssoc) Valid(i int) bool { return a.Tags[i] != 0 }

// Fill installs key at index i with LRU stamp lru.
func (a *SetAssoc) Fill(i int, key, lru uint64) {
	a.Tags[i] = key + 1
	a.LRU[i] = lru
}

// Drop invalidates the way at index i.
func (a *SetAssoc) Drop(i int) { a.Tags[i] = 0 }

// Clear invalidates every way.
func (a *SetAssoc) Clear() { clear(a.Tags) }
