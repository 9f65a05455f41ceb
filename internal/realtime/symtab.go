package realtime

import (
	"sync"
	"sync/atomic"

	"unilog/internal/events"
)

// Event names are numbered by the process-wide events name table, countries
// by geo's fixed table; a leaf is keyed by both indexes. What is left here
// is what neither table can know about one counter: a bit per path ID it
// has counted, grown under mu and read without a lock. Paths are the
// process's, so without it a cluster partition's counter would scan a whole
// window for a path none of its names lies under, and rank every child the
// process knows.
type symtab struct {
	mu    sync.Mutex
	paths atomic.Pointer[[]atomic.Uint64] // bit per path ID counted here
}

func newSymtab() *symtab {
	t := &symtab{}
	t.paths.Store(new([]atomic.Uint64))
	return t
}

// count marks e's six paths as counted here. The full name's path is its
// own and, numbered after its parents, the highest, so its bit says whether
// the name was seen before.
func (t *symtab) count(e *events.NameEntry) {
	full := e.Prefix[events.NumComponents-1]
	if t.counted(full) {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	bits := *t.paths.Load()
	if need := int(full>>6) + 1; need > len(bits) {
		// Every setter holds mu, so the copy misses no bit; readers of the
		// old slice see a subset of the new one.
		grown := make([]atomic.Uint64, max(need, 2*len(bits)))
		for i := range bits {
			grown[i].Store(bits[i].Load())
		}
		bits = grown
		t.paths.Store(&bits)
	}
	for _, id := range e.Prefix {
		bits[id>>6].Or(1 << (id & 63))
	}
}

// counted reports whether any name this counter counted lies under path.
func (t *symtab) counted(path uint32) bool {
	bits := *t.paths.Load()
	i := int(path >> 6)
	return i < len(bits) && bits[i].Load()&(1<<(path&63)) != 0
}
