package events

import (
	"strconv"
	"strings"
	"sync"

	"unilog/internal/telemetry"
)

// The name table is §4's dictionary of event names, one per process: a valid
// name is validated and digested — its six hierarchy prefixes, its five
// §3.2 rollup names, its hash — the first time any consumer meets it, behind
// a dense name ID. Each prefix ("web", "web:home", ..., the full name) has a
// path ID of its own and is listed under its parent's, so a reader can ask
// for a path's children without touching a string; rolled names are keyed
// by nothing, so they stay strings on the entry.
//
// The table is append-only and read-mostly: a lookup takes the read lock,
// and the write lock is taken only the first time a valid name appears.
// Entries are immutable and IDs never reused, so an entry, and the slices
// NameEntries, Paths and PathChildren hand out, stay valid and race-free to
// read after the lock is dropped. Nothing on disk holds these IDs.

// NoParent is the parent of a depth-0 path (a client, e.g. "web").
const NoParent = ^uint32(0)

// NameEntry is the digest of one valid full event name.
type NameEntry struct {
	ID   uint32 // dense name ID, in first-seen order
	Full string // the colon-joined name
	// Hash is Hash64(Full): the realtime shard and the cluster partition are
	// both taken from it.
	Hash uint64
	// Prefix[d] is the path ID of the first d+1 components.
	Prefix [NumComponents]uint32
	// Rolled[l] is the level-l rolled name of §3.2; Rolled[0] is Full.
	Rolled [NumRollupLevels]string
}

var names = &struct {
	mu      sync.RWMutex
	byFull  map[string]*NameEntry
	byName  map[EventName]*NameEntry
	entries []*NameEntry // name ID -> entry
	pathID  map[string]uint32
	paths   []string // path ID -> hierarchy prefix
	// kids lists each path's children (NoParent: the clients), ascending.
	kids map[uint32][]uint32
}{
	byFull: make(map[string]*NameEntry),
	byName: make(map[EventName]*NameEntry),
	pathID: make(map[string]uint32),
	kids:   make(map[uint32][]uint32),
}

func init() {
	telemetry.RegisterGaugeFunc("events.names.entries", func() int64 { return int64(len(NameEntries())) })
	telemetry.RegisterGaugeFunc("events.names.paths", func() int64 { return int64(len(Paths())) })
}

// LookupBytes returns the entry of a name still lying in a message buffer —
// the realtime tap's, the cluster router's and the WAL decoder's door. A name seen before costs
// one read-locked lookup on the bytes in place. A name ParseName rejects is
// an error and is not stored.
func LookupBytes(b []byte) (*NameEntry, error) {
	names.mu.RLock()
	e := names.byFull[string(b)]
	names.mu.RUnlock()
	if e != nil {
		return e, nil
	}
	return intern(string(b))
}

// Lookup is LookupBytes for a name that arrives as a string: the rollup
// combiner's.
func Lookup(full string) (*NameEntry, error) {
	names.mu.RLock()
	e := names.byFull[full]
	names.mu.RUnlock()
	if e != nil {
		return e, nil
	}
	return intern(full)
}

// LookupName is Lookup for a parsed name, so a decoded event is counted
// without rendering its string. An invalid name is an error and is not
// stored.
func LookupName(n EventName) (*NameEntry, error) {
	names.mu.RLock()
	e := names.byName[n]
	names.mu.RUnlock()
	if e != nil {
		return e, nil
	}
	return intern(n.String())
}

// intern is the one slow path: validate s, then publish its entry under the
// write lock unless a racing caller got there first. The entry keeps its own
// copy of s, so it never aliases the caller's buffer.
func intern(s string) (*NameEntry, error) {
	if _, err := ParseName(s); err != nil {
		return nil, err
	}
	names.mu.Lock()
	defer names.mu.Unlock()
	if e := names.byFull[s]; e != nil {
		return e, nil
	}
	full := strings.Clone(s)
	n, _ := ParseName(full) // s parsed, and full is s
	e := &NameEntry{ID: uint32(len(names.entries)), Full: full, Hash: Hash64(full)}
	d, parent := 0, NoParent
	for i := 0; i <= len(full); i++ {
		if i < len(full) && full[i] != ':' {
			continue
		}
		id, ok := names.pathID[full[:i]]
		if !ok {
			id = uint32(len(names.paths))
			names.pathID[full[:i]] = id
			names.paths = append(names.paths, full[:i])
			names.kids[parent] = append(names.kids[parent], id)
		}
		e.Prefix[d], parent = id, id
		d++
	}
	for lvl := range e.Rolled {
		e.Rolled[lvl] = n.Rollup(RollupLevel(lvl)).String()
	}
	names.entries = append(names.entries, e)
	names.byFull[full] = e
	names.byName[n] = e
	return e, nil
}

// Hash64 is FNV-1a 64, inlined to keep hashing allocation-free (the stdlib
// hash/fnv forces the input through an io.Writer).
func Hash64(s string) uint64 { return fnv1a(14695981039346656037, s) }

// fnv1a continues an FNV-1a 64 hash h over the bytes of s.
func fnv1a[T string | []byte](h uint64, s T) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// Digest is an order-independent digest of a multiset of events: the count,
// and the sum mod 2^64 of the FNV-1a 64 hash of each event's user ID,
// session ID, timestamp and full name, joined as "%d\x00%s\x00%d\x00%s".
// Equal digests mean equal multisets but for a hash collision, so a lost
// event plus a duplicated one, which leave the count alone, move the sum.
// Details are left out: they are not part of an event's identity here. Its
// arguments are plain values, so it digests a decoded event and a row of
// column vectors alike.
type Digest struct {
	N   int64
	Sum uint64
}

// Add folds one event into the digest.
func (d *Digest) Add(userID int64, sessionID string, ts int64, name string) {
	var num [20]byte
	h := fnv1a(14695981039346656037, strconv.AppendInt(num[:0], userID, 10))
	h = fnv1a(fnv1a(h, "\x00"), sessionID)
	h = fnv1a(fnv1a(h, "\x00"), strconv.AppendInt(num[:0], ts, 10))
	h = fnv1a(fnv1a(h, "\x00"), name)
	d.N++
	d.Sum += h
}

// NameEntries returns the name ID → entry table as it stands. It covers
// every ID handed out before the call.
func NameEntries() []*NameEntry {
	names.mu.RLock()
	s := names.entries
	names.mu.RUnlock()
	return s[:len(s):len(s)]
}

// Paths returns the path ID → path table as it stands. It covers every path
// ID handed out before the call.
func Paths() []string {
	names.mu.RLock()
	s := names.paths
	names.mu.RUnlock()
	return s[:len(s):len(s)]
}

// PathID resolves a hierarchy path to its ID; a miss means no name under it
// has been seen.
func PathID(path string) (uint32, bool) {
	names.mu.RLock()
	id, ok := names.pathID[path]
	names.mu.RUnlock()
	return id, ok
}

// PathChildren lists the path IDs of parent's direct children (NoParent
// selects the clients), ascending.
func PathChildren(parent uint32) []uint32 {
	names.mu.RLock()
	k := names.kids[parent]
	names.mu.RUnlock()
	return k[:len(k):len(k)]
}

// ChildrenOf is PathChildren by path: "" lists the clients, and a path no
// name lies under has no children.
func ChildrenOf(path string) []uint32 {
	id, ok := PathID(path)
	if path == "" {
		id, ok = NoParent, true
	}
	if !ok {
		return nil
	}
	return PathChildren(id)
}
