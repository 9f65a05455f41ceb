package events_test

import (
	"fmt"
	"hash/fnv"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"unilog/internal/events"
	"unilog/internal/telemetry"
	"unilog/internal/workload"
)

// lookupAll looks full up through the three entry points and fails unless
// all three return the one entry.
func lookupAll(t testing.TB, full string) *events.NameEntry {
	t.Helper()
	byString, err := events.Lookup(full)
	if err != nil {
		t.Fatalf("Lookup(%q): %v", full, err)
	}
	byBytes, err := events.LookupBytes([]byte(full))
	if err != nil {
		t.Fatalf("LookupBytes(%q): %v", full, err)
	}
	byName, err := events.LookupName(events.MustParseName(full))
	if err != nil {
		t.Fatalf("LookupName(%q): %v", full, err)
	}
	if byBytes != byString || byName != byString {
		t.Fatalf("%q: the entry points returned %p (string), %p (bytes), %p (name)", full, byString, byBytes, byName)
	}
	return byString
}

// checkEntry holds an entry to its name's reference digest: the table slot
// its ID names, the hash, each prefix path the name's first d+1 components,
// each rolled name ParseName(full).Rollup(l).
func checkEntry(t testing.TB, e *events.NameEntry) {
	t.Helper()
	if got := events.NameEntries()[e.ID]; got != e {
		t.Errorf("%q: NameEntries()[%d] is %p, not the entry %p", e.Full, e.ID, got, e)
	}
	h := fnv.New64a()
	h.Write([]byte(e.Full))
	if e.Hash != h.Sum64() {
		t.Errorf("%q: Hash %x, FNV-1a 64 %x", e.Full, e.Hash, h.Sum64())
	}
	n, err := events.ParseName(e.Full)
	if err != nil {
		t.Fatalf("%q is in the table: %v", e.Full, err)
	}
	paths, parts := events.Paths(), strings.Split(e.Full, ":")
	for d, id := range e.Prefix {
		if want := strings.Join(parts[:d+1], ":"); paths[id] != want {
			t.Errorf("%q: Prefix[%d] is path %q, want %q", e.Full, d, paths[id], want)
		}
		if got, ok := events.PathID(paths[id]); !ok || got != id {
			t.Errorf("%q: PathID(%q) = %d, %v; want %d", e.Full, paths[id], got, ok, id)
		}
		parent := events.NoParent
		if d > 0 {
			parent = e.Prefix[d-1]
		}
		if !slices.Contains(events.PathChildren(parent), id) {
			t.Errorf("%q: path %q is not listed under its parent", e.Full, paths[id])
		}
	}
	for lvl, rolled := range e.Rolled {
		if want := n.Rollup(events.RollupLevel(lvl)).String(); rolled != want {
			t.Errorf("%q: Rolled[%d] = %q, want %q", e.Full, lvl, rolled, want)
		}
	}
}

func TestNamesOneEntryPerName(t *testing.T) {
	const full = "web:home:mentions:stream:avatar:profile_click"
	e := lookupAll(t, full)
	if again := lookupAll(t, full); again != e {
		t.Fatalf("a second lookup returned another entry")
	}
	if e.Full != full || e.Rolled[0] != full {
		t.Errorf("entry names %q, rolled[0] %q; want %q", e.Full, e.Rolled[0], full)
	}
	if got := e.Rolled[2]; got != "web:home:mentions:*:*:profile_click" {
		t.Errorf("Rolled[2] = %q", got)
	}
	checkEntry(t, e)
}

func TestNamesSharePrefixIDs(t *testing.T) {
	a := lookupAll(t, "web:home:mentions:stream:avatar:profile_click")
	b := lookupAll(t, "web:home:timeline:stream:tweet:impression")
	if a.Prefix[0] != b.Prefix[0] || a.Prefix[1] != b.Prefix[1] {
		t.Errorf("shared prefixes got distinct IDs: %v vs %v", a.Prefix[:2], b.Prefix[:2])
	}
	if a.Prefix[2] == b.Prefix[2] {
		t.Errorf("distinct sections share an ID")
	}
	if a.ID == b.ID {
		t.Errorf("distinct names share a name ID")
	}
}

func TestNamesInvalidNameNotStored(t *testing.T) {
	entries, paths := len(events.NameEntries()), len(events.Paths())
	if _, err := events.LookupName(events.EventName{Client: "web"}); err == nil { // empty action
		t.Error("an invalid name was looked up")
	}
	for _, bad := range []string{"not-a-name", "web:home:::page", "web:Home:::page:open", "a:b:c:d:e:f:g", ":::::open"} {
		if _, err := events.Lookup(bad); err == nil {
			t.Errorf("Lookup(%q) accepted it", bad)
		}
		if _, err := events.LookupBytes([]byte(bad)); err == nil {
			t.Errorf("LookupBytes(%q) accepted it", bad)
		}
	}
	if e, p := len(events.NameEntries()), len(events.Paths()); e != entries || p != paths {
		t.Fatalf("invalid names grew the table from %d entries and %d paths to %d and %d", entries, paths, e, p)
	}
}

// TestNamesConcurrentLookup hammers the table from many goroutines looking up
// an overlapping name set through all three doors; every goroutine must see
// one entry per name, and the IDs stay dense (run under -race in CI).
func TestNamesConcurrentLookup(t *testing.T) {
	names := make([]string, 32)
	for i := range names {
		names[i] = fmt.Sprintf("conc:page%d:sec:stream:tweet:action%d", i%7, i%5)
	}
	const goroutines = 8
	got := make([][]*events.NameEntry, goroutines)
	var wg sync.WaitGroup
	for g := range got {
		got[g] = make([]*events.NameEntry, len(names))
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 200; rep++ {
				for i, full := range names {
					var e *events.NameEntry
					var err error
					switch (g + rep + i) % 3 {
					case 0:
						e, err = events.Lookup(full)
					case 1:
						e, err = events.LookupBytes([]byte(full))
					default:
						e, err = events.LookupName(events.MustParseName(full))
					}
					if err != nil {
						t.Error(err)
						return
					}
					if got[g][i] != nil && got[g][i] != e {
						t.Errorf("goroutine %d saw two entries for %q", g, full)
						return
					}
					got[g][i] = e
				}
			}
		}(g)
	}
	wg.Wait()
	for g := range got {
		for i := range names {
			if got[g][i] != got[0][i] {
				t.Fatalf("goroutines disagree on the entry of %q", names[i])
			}
		}
	}
	for id, e := range events.NameEntries() {
		if e.ID != uint32(id) {
			t.Fatalf("entry %q sits at %d with ID %d: IDs are not dense", e.Full, id, e.ID)
		}
	}
}

// TestNamesOverGeneratedNamespace holds every entry of a generated day's
// names to the reference digest, through all three doors.
func TestNamesOverGeneratedNamespace(t *testing.T) {
	evs, _ := workload.New(workload.DefaultConfig(time.Date(2012, 8, 21, 0, 0, 0, 0, time.UTC))).Generate()
	seen := map[string]bool{}
	for i := range evs {
		if full := evs[i].Name.String(); !seen[full] {
			seen[full] = true
			checkEntry(t, lookupAll(t, full))
		}
	}
	if len(seen) < 50 {
		t.Fatalf("the generated day has %d distinct names; the namespace is not exercised", len(seen))
	}
}

// TestNamesGaugesSurviveReset: the table's size is published as two gauge
// funcs, which a registry reset leaves reading the table.
func TestNamesGaugesSurviveReset(t *testing.T) {
	lookupAll(t, "web:home:timeline:stream:tweet:impression")
	telemetry.Reset()
	s := telemetry.Snapshot().Series
	if got, want := s["events.names.entries"], int64(len(events.NameEntries())); got != want || got == 0 {
		t.Errorf("events.names.entries = %d after a reset, want %d", got, want)
	}
	if got, want := s["events.names.paths"], int64(len(events.Paths())); got != want || got == 0 {
		t.Errorf("events.names.paths = %d after a reset, want %d", got, want)
	}
}

// FuzzInternMatchesParseName: the byte door accepts exactly what ParseName
// accepts. An accepted name's entry is its reference digest and the string
// and EventName doors return it too; a rejected one leaves the table as it
// was.
func FuzzInternMatchesParseName(f *testing.F) {
	for _, s := range []string{
		"web:home:mentions:stream:avatar:profile_click",
		"web:home:::page:open",
		"iphone:signup:flow:step:follow_suggestions:view",
		"a-b:0:_:::z",
		"", ":", ":::::", ":::::open", "web:::::", "web:home:::page",
		"web:home:::page:open:", "Web:home:::page:open", "web:home:::pa ge:open",
		"web:home:::page:\xffopen", "web:*:*:*:*:open",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		before := len(events.NameEntries())
		e, err := events.LookupBytes(b)
		n, perr := events.ParseName(string(b))
		if (err == nil) != (perr == nil) {
			t.Fatalf("%q: LookupBytes error %v, ParseName error %v", b, err, perr)
		}
		if err != nil {
			if after := len(events.NameEntries()); after != before {
				t.Fatalf("%q was rejected and the table grew from %d to %d entries", b, before, after)
			}
			return
		}
		if e.Full != string(b) {
			t.Fatalf("%q: entry names %q", b, e.Full)
		}
		checkEntry(t, e)
		byString, _ := events.Lookup(string(b))
		byName, _ := events.LookupName(n)
		if byString != e || byName != e {
			t.Fatalf("%q: the string door returned %p and the name door %p, the byte door %p", b, byString, byName, e)
		}
	})
}

// TestDigest: the exactly-once digest is a multiset's. The same events in
// the same order or in another digest equal; one dropped and another
// duplicated keep the count and move the sum. The sums are pinned to those
// of hash/fnv fed fmt.Fprintf(h, "%d\x00%s\x00%d\x00%s", ...), the formula
// every digest a scenario cell has reported was computed with.
func TestDigest(t *testing.T) {
	type ev struct {
		user    int64
		session string
		ts      int64
		name    string
	}
	var evs []ev
	for i := 0; i < 6; i++ {
		evs = append(evs, ev{int64(i % 2), fmt.Sprintf("s%d", i%4), 1_345_507_200_000 + int64(i)*1000,
			fmt.Sprintf("web:home:timeline:stream:tweet:action%d", i%3)})
	}
	digest := func(order ...int) events.Digest {
		var d events.Digest
		for _, i := range order {
			d.Add(evs[i].user, evs[i].session, evs[i].ts, evs[i].name)
		}
		return d
	}
	want := digest(0, 1, 2, 3, 4, 5)
	if want != (events.Digest{N: 6, Sum: 0x1539ec1bb26c4da7}) {
		t.Errorf("six events digest %d, %016x; want 6, 1539ec1bb26c4da7", want.N, want.Sum)
	}
	if got := digest(5, 3, 1, 0, 4, 2); got != want {
		t.Errorf("reordered events digest %+v, in order %+v", got, want)
	}
	got := digest(0, 1, 2, 3, 4, 4) // 5 lost, 4 twice
	if got.N != want.N || got.Sum == want.Sum {
		t.Errorf("a drop plus a duplicate digests %+v, the events %+v: want the count equal and the sum not", got, want)
	}
	for _, c := range []struct {
		e   ev
		sum uint64
	}{
		{ev{-1 << 63, "", -1, "iphone:home:::tweet:click"}, 0xb0c45836232b0944},
		{ev{}, 0x1a713d3150bfdacf},
	} {
		var d events.Digest
		d.Add(c.e.user, c.e.session, c.e.ts, c.e.name)
		if d.Sum != c.sum {
			t.Errorf("%+v digests %016x, want %016x", c.e, d.Sum, c.sum)
		}
	}
}
