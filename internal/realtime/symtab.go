package realtime

import (
	"slices"
	"sync"
	"sync/atomic"

	"unilog/internal/events"
)

// Event names are numbered by the process-wide events name table; a leaf is
// keyed by the entry's ID. What is left here is what that table cannot know
// about one counter, both grown under mu and read without a lock:
//
//   - its countries: a handful, so a copy-on-write slice, append-only as the
//     WAL record dictionaries (live segments and snapshots alike) need;
//   - a bit per path ID it has counted. Paths are the process's, so without
//     it a cluster partition's counter would scan a whole window for a path
//     none of its names lies under, and rank every child the process knows.
type symtab struct {
	mu    sync.Mutex
	codes atomic.Pointer[[]string]        // country ID -> code
	paths atomic.Pointer[[]atomic.Uint64] // bit per path ID counted here
}

func newSymtab() *symtab {
	t := &symtab{}
	t.codes.Store(new([]string))
	t.paths.Store(new([]atomic.Uint64))
	return t
}

// country returns code's ID, numbering it the first time it is seen.
func (t *symtab) country(code string) uint32 {
	if i := slices.Index(*t.codes.Load(), code); i >= 0 {
		return uint32(i)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	codes := *t.codes.Load()
	if i := slices.Index(codes, code); i >= 0 {
		return uint32(i)
	}
	// Readers hold shorter slices of the same array, so appending past
	// their length races none of them.
	codes = append(codes, code)
	t.codes.Store(&codes)
	return uint32(len(codes) - 1)
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

// countries returns the country ID → code table as it stands.
func (t *symtab) countries() []string { return *t.codes.Load() }

// countryName resolves a country ID back to its code.
func (t *symtab) countryName(id uint32) string { return t.countries()[id] }
