package realtime

import (
	"fmt"
	"sync"

	"unilog/internal/events"
	"unilog/internal/recordio"
)

// The symbol table is the hot-path optimization the §3 namespace makes
// possible: millions of events per minute draw their names from a small,
// slowly-growing set, so everything derivable from a name — its six
// hierarchy prefixes, its five §3.2 rollup names, its shard routing —
// is computed once, the first time the name is seen, and cached
// behind a dense integer ID. After that, digesting an event is one
// read-locked map lookup and the counters increment one integer-keyed
// leaf instead of hashing strings.
//
// Two ID spaces cover the namespace:
//
//   - a *name* ID per distinct full event name (dense intern order; this
//     keys a bucket's leaves, the snapshot dictionary and the WAL v2
//     dictionaries), each owning a nameSym with the cached digest;
//   - a *path* ID per distinct hierarchy prefix — "web", "web:home", ...,
//     the full name — which keys a bucket's prefix cache. Each path is
//     listed under its parent, which is what lets TopK ask a bucket for a
//     path's children without touching a string or walking the bucket.
//
// Rolled-up names have no ID: nothing is keyed by one, so they are strings
// on the sym. Countries get the ID treatment in a third, tiny space.
//
// The table is read-mostly: lookups take the read lock; the write lock is
// taken only the first time a name (or country) appears, and entries are
// immutable once published, so a *nameSym handed out under RLock stays
// valid forever. IDs are append-only and never reused, which is what the
// snapshot dictionary and the WAL v2 per-segment dictionaries rely on.

// noParent is the parent of a depth-0 path (a client, e.g. "web") in kids.
const noParent = ^uint32(0)

// nameSym is the cached digest of one full event name — its strings, its
// shard and the eleven cells §3.2 derives from it (six prefixes, five
// rollup names) — paid once per distinct name instead of once per event.
// An event increments one leaf keyed by id; prefixID and rolled are how a
// reader expands that leaf.
type nameSym struct {
	id    uint32 // dense name ID, the snapshot and WAL v2 dictionary key
	full  string
	shard uint32 // hash of full, modulo the counter's shard count
	// prefixID[d] is the path ID of the first d+1 components.
	prefixID [events.NumComponents]uint32
	// rolled[l] is the level-l rolled name of §3.2; rolled[0] is full.
	rolled [events.NumRollupLevels]string
}

// symtab is a concurrent, read-mostly intern table bound to one Counter
// (shard routing depends on the counter's configuration).
type symtab struct {
	shards uint32

	mu     sync.RWMutex
	byName map[events.EventName]*nameSym
	byFull map[string]*nameSym
	syms   []*nameSym // name ID -> sym

	pathID map[string]uint32
	paths  []string // path ID -> hierarchy prefix
	// kids lists each path's direct children (noParent: the depth-0
	// roots), ascending by ID because IDs are handed out in append order.
	kids map[uint32][]uint32

	countryID map[string]uint32
	countries []string // country ID -> code
}

func newSymtab(shards int) *symtab {
	return &symtab{
		shards:    uint32(shards),
		byName:    make(map[events.EventName]*nameSym),
		byFull:    make(map[string]*nameSym),
		pathID:    make(map[string]uint32),
		kids:      make(map[uint32][]uint32),
		countryID: make(map[string]uint32),
	}
}

// resolve is the live-ingest fast path: one RLock covers both the name and
// the country. A hit skips validation entirely — a name only enters the
// table after validating once. The write-locked slow path runs once per
// distinct (name, country).
func (t *symtab) resolve(n events.EventName, country string) (*nameSym, uint32, error) {
	t.mu.RLock()
	sym, ok := t.byName[n]
	cid, cok := t.countryID[country]
	t.mu.RUnlock()
	if ok && cok {
		return sym, cid, nil
	}
	if !ok {
		if err := n.Validate(); err != nil {
			return nil, 0, err
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !ok {
		sym = t.internLocked(n)
	}
	if !cok {
		cid = t.countryLocked(country)
	}
	return sym, cid, nil
}

// resolveFull is resolve keyed by the colon-joined name — the WAL-replay
// path, where names arrive as logged strings. A hit costs one string map
// lookup; only a first-seen name pays the parse and validation.
func (t *symtab) resolveFull(full, country string) (*nameSym, uint32, error) {
	t.mu.RLock()
	sym, ok := t.byFull[full]
	cid, cok := t.countryID[country]
	t.mu.RUnlock()
	if ok && cok {
		return sym, cid, nil
	}
	if !ok {
		n, err := events.ParseName(full)
		if err != nil {
			return nil, 0, err
		}
		t.mu.Lock()
		defer t.mu.Unlock()
		sym = t.internLocked(n)
		return sym, t.countryLocked(country), nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return sym, t.countryLocked(country), nil
}

// resolveBytes is resolveFull for a name still lying in a Thrift message —
// the tap's path. A name seen before costs the one map lookup, keyed on the
// bytes in place; only a first-seen one is copied to a string, parsed and
// validated, so the returned sym never aliases name.
func (t *symtab) resolveBytes(name []byte, country string) (*nameSym, uint32, error) {
	t.mu.RLock()
	sym, ok := t.byFull[string(name)]
	cid, cok := t.countryID[country]
	t.mu.RUnlock()
	if ok && cok {
		return sym, cid, nil
	}
	return t.resolveFull(string(name), country)
}

// internLocked builds and publishes the digest of a validated name.
// Callers hold the write lock.
func (t *symtab) internLocked(n events.EventName) *nameSym {
	if sym, ok := t.byName[n]; ok {
		return sym
	}
	full := n.String()
	sym := &nameSym{id: uint32(len(t.syms)), full: full}
	sym.shard = hash32(full) % t.shards
	d, parent := 0, noParent
	for i := 0; i <= len(full); i++ {
		if i == len(full) || full[i] == ':' {
			parent = t.internPathLocked(full[:i], parent)
			sym.prefixID[d] = parent
			d++
		}
	}
	sym.rolled[0] = full
	for lvl := 1; lvl < events.NumRollupLevels; lvl++ {
		sym.rolled[lvl] = n.Rollup(events.RollupLevel(lvl)).String()
	}
	t.syms = append(t.syms, sym)
	t.byName[n] = sym
	t.byFull[full] = sym
	return sym
}

// internPathLocked interns one hierarchy prefix under its parent's ID
// (noParent at depth 0). Callers hold the write lock.
func (t *symtab) internPathLocked(s string, parent uint32) uint32 {
	if id, ok := t.pathID[s]; ok {
		return id
	}
	id := uint32(len(t.paths))
	t.pathID[s] = id
	t.paths = append(t.paths, s)
	t.kids[parent] = append(t.kids[parent], id)
	return id
}

func (t *symtab) countryLocked(s string) uint32 {
	if id, ok := t.countryID[s]; ok {
		return id
	}
	id := uint32(len(t.countries))
	t.countryID[s] = id
	t.countries = append(t.countries, s)
	return id
}

// internDict interns a snapshot file's dictionary under one write lock,
// returning file ID (slice index) → this table's ID for names and
// countries, so every leaf row in the file translates with two array
// indexes. An entry that is not a valid six-component event name makes the
// file corrupt; the names before it stay interned, which counts nothing.
func (t *symtab) internDict(d *snapDict) (snapRemap, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	remap := snapRemap{
		names:     make([]uint32, len(d.names)),
		countries: make([]uint32, len(d.countries)),
	}
	for i, s := range d.names {
		n, err := events.ParseName(s)
		if err != nil {
			return snapRemap{}, fmt.Errorf("%w: snapshot dictionary name %q: %v", recordio.ErrCorrupt, s, err)
		}
		remap.names[i] = t.internLocked(n).id
	}
	for i, s := range d.countries {
		remap.countries[i] = t.countryLocked(s)
	}
	return remap, nil
}

// pathOf resolves a query string to its path ID; a miss means the path has
// never been counted.
func (t *symtab) pathOf(s string) (uint32, bool) {
	t.mu.RLock()
	id, ok := t.pathID[s]
	t.mu.RUnlock()
	return id, ok
}

// countryName resolves a country ID back to its code at query time.
func (t *symtab) countryName(id uint32) string {
	t.mu.RLock()
	s := t.countries[id]
	t.mu.RUnlock()
	return s
}

// symsSnapshot returns the name ID → sym table as it stands: the slice a
// reader expands leaf keys through. Like childrenOf's result it stays valid,
// and race-free to read, after the lock is dropped — IDs are append-only and
// entries immutable — and it covers every ID a leaf written before the call
// can hold.
func (t *symtab) symsSnapshot() []*nameSym {
	t.mu.RLock()
	s := t.syms
	t.mu.RUnlock()
	return s[:len(s):len(s)]
}

// childrenOf lists the path IDs of parent's direct children (noParent
// selects the depth-0 roots), ascending. The result is a snapshot: IDs are
// append-only and published entries never change, so it stays valid, and
// race-free to read, after the lock is dropped.
func (t *symtab) childrenOf(parent uint32) []uint32 {
	t.mu.RLock()
	k := t.kids[parent]
	t.mu.RUnlock()
	return k[:len(k):len(k)]
}

// resolveCounts names the paths that counted anything: counts[i] belongs to
// ids[i]. This is the string resolution at the edge of a query, one lock
// for the whole pass.
func (t *symtab) resolveCounts(ids []uint32, counts []int64) []PathCount {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var out []PathCount
	for i, n := range counts {
		if n != 0 {
			out = append(out, PathCount{Path: t.paths[ids[i]], Count: n})
		}
	}
	return out
}

// dict snapshots the name and country tables — the snapshot file's
// dictionary. The copies index exactly by ID, and because IDs are
// append-only they cover every ID any concurrently-captured bucket can
// reference.
func (t *symtab) dict() (names, countries []string) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	names = make([]string, len(t.syms))
	for i, sym := range t.syms {
		names[i] = sym.full
	}
	countries = make([]string, len(t.countries))
	copy(countries, t.countries)
	return names, countries
}
