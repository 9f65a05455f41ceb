package realtime

import (
	"strings"
	"sync"

	"unilog/internal/events"
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
//     is also the WAL v2 dictionary key), each owning a nameSym with the
//     cached digest;
//   - a *path* ID per distinct counter key — every prefix of every name
//     plus every rolled-up name — carrying the string, its depth, and its
//     parent path, and listed under that parent, which is what lets TopK
//     ask a bucket for a path's children without touching a string or
//     walking the bucket.
//
// Countries get the same treatment in a third, tiny space.
//
// The table is read-mostly: lookups take the read lock; the write lock is
// taken only the first time a name (or country) appears, and entries are
// immutable once published, so a *nameSym handed out under RLock stays
// valid forever. IDs are append-only and never reused, which is what the
// snapshot dictionary and the WAL v2 per-segment dictionaries rely on.

// noParent marks a depth-0 path (a client, e.g. "web") in pathInfo.parent.
const noParent = ^uint32(0)

// nameSym is the cached digest of one full event name — its strings, its
// shard and the IDs of the eleven cells §3.2 derives from it (six prefixes,
// five rollup names) — paid once per distinct name instead of once per
// event. An event increments one leaf keyed by id; prefixID and rollupID
// are how a reader expands that leaf.
type nameSym struct {
	id    uint32 // dense name ID, the WAL v2 dictionary key
	full  string
	shard uint32 // hash of full, modulo the counter's shard count
	// prefixID[d] is the path ID of the first d+1 components.
	prefixID [events.NumComponents]uint32
	// rollupID[l] is the path ID of the level-l rolled name of §3.2.
	rollupID [events.NumRollupLevels]uint32
}

// pathInfo describes one interned counter key.
type pathInfo struct {
	str    string
	parent uint32 // path ID of the parent path, noParent at depth 0
	depth  uint8  // number of ':' in str
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
	paths  []pathInfo // path ID -> info
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
	d := 0
	for i := 0; i < len(full); i++ {
		if full[i] == ':' {
			sym.prefixID[d] = t.internPathLocked(full[:i])
			d++
		}
	}
	sym.prefixID[events.NumComponents-1] = t.internPathLocked(full)
	sym.rollupID[0] = sym.prefixID[events.NumComponents-1]
	for lvl := 1; lvl < events.NumRollupLevels; lvl++ {
		sym.rollupID[lvl] = t.internPathLocked(n.Rollup(events.RollupLevel(lvl)).String())
	}
	t.syms = append(t.syms, sym)
	t.byName[n] = sym
	t.byFull[full] = sym
	return sym
}

// internPathLocked interns one counter key, parents first, so every path's
// parent already has an ID. Callers hold the write lock.
func (t *symtab) internPathLocked(s string) uint32 {
	if id, ok := t.pathID[s]; ok {
		return id
	}
	info := pathInfo{str: s, parent: noParent}
	if i := strings.LastIndexByte(s, ':'); i >= 0 {
		info.parent = t.internPathLocked(s[:i])
		info.depth = t.paths[info.parent].depth + 1
	}
	id := uint32(len(t.paths))
	t.pathID[s] = id
	t.paths = append(t.paths, info)
	t.kids[info.parent] = append(t.kids[info.parent], id)
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

// internCountries interns a snapshot file's country table under one write
// lock, returning old-ID (slice index) → new-ID, so every cell in the file
// translates its country with one array index.
func (t *symtab) internCountries(ss []string) []uint32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]uint32, len(ss))
	for i, s := range ss {
		out[i] = t.countryLocked(s)
	}
	return out
}

// country interns a country code outside the ingest path.
func (t *symtab) country(s string) uint32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.countryLocked(s)
}

// pathOf resolves a query string to its path ID; a miss means the path has
// never been counted.
func (t *symtab) pathOf(s string) (uint32, bool) {
	t.mu.RLock()
	id, ok := t.pathID[s]
	t.mu.RUnlock()
	return id, ok
}

// pathString resolves a path ID back to its string at query time.
func (t *symtab) pathString(id uint32) string {
	t.mu.RLock()
	s := t.paths[id].str
	t.mu.RUnlock()
	return s
}

// pathMeta reports a path's depth and parent ID.
func (t *symtab) pathMeta(id uint32) (depth uint8, parent uint32) {
	t.mu.RLock()
	p := t.paths[id]
	t.mu.RUnlock()
	return p.depth, p.parent
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
			out = append(out, PathCount{Path: t.paths[ids[i]].str, Count: n})
		}
	}
	return out
}

// dict snapshots both string tables — the snapshot file's dictionary. The
// copies index exactly by ID, and because IDs are append-only they cover
// every ID any concurrently-captured bucket can reference.
func (t *symtab) dict() (paths, countries []string) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	paths = make([]string, len(t.paths))
	for i := range t.paths {
		paths[i] = t.paths[i].str
	}
	countries = make([]string, len(t.countries))
	copy(countries, t.countries)
	return paths, countries
}
