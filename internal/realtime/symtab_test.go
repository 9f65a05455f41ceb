package realtime

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"unilog/internal/events"
)

func TestSymtabInternCachesFullDigest(t *testing.T) {
	tab := newSymtab(4)
	n := events.MustParseName("web:home:mentions:stream:avatar:profile_click")
	sym, cid, err := tab.resolve(n, "us")
	if err != nil {
		t.Fatal(err)
	}
	again, cid2, err := tab.resolve(n, "us")
	if err != nil {
		t.Fatal(err)
	}
	if sym != again || cid != cid2 {
		t.Fatalf("second resolve returned a different sym (%p vs %p) or country (%d vs %d)", sym, again, cid, cid2)
	}
	// The same name through the replay path resolves to the same sym.
	byFull, _, err := tab.resolveFull(n.String(), "us")
	if err != nil {
		t.Fatal(err)
	}
	if byFull != sym {
		t.Fatalf("resolveFull returned a different sym")
	}
	// The shard is the name's hash modulo the shard count.
	if h := hash32(n.String()); sym.shard != h%4 {
		t.Fatalf("shard = %d, want %d", sym.shard, h%4)
	}
	// The six prefixes resolve to their own strings, parents chained.
	wantPrefixes := []string{
		"web",
		"web:home",
		"web:home:mentions",
		"web:home:mentions:stream",
		"web:home:mentions:stream:avatar",
		"web:home:mentions:stream:avatar:profile_click",
	}
	parent := noParent
	for d, want := range wantPrefixes {
		id := sym.prefixID[d]
		if got := tab.paths[id]; got != want {
			t.Errorf("prefix[%d] = %q, want %q", d, got, want)
		}
		if kids := tab.childrenOf(parent); len(kids) != 1 || kids[0] != id {
			t.Errorf("children of %q's parent = %v, want [%d]", want, kids, id)
		}
		parent = id
	}
	// Rollup level 0 is the full name; higher levels wildcard per §3.2.
	if sym.rolled[0] != sym.full {
		t.Errorf("rolled[0] = %q, want the full name", sym.rolled[0])
	}
	if got := sym.rolled[2]; got != "web:home:mentions:*:*:profile_click" {
		t.Errorf("rolled[2] = %q", got)
	}
}

// TestSymtabPathsAreHierarchyPrefixes: the path space holds what a bucket's
// prefix cache is keyed by and nothing else. After the generated day no
// interned path is a rolled name, and every child TopK would probe counted
// something that day.
func TestSymtabPathsAreHierarchyPrefixes(t *testing.T) {
	c := newCounter(t, Config{})
	ingestGeneratedDay(c)
	if len(c.tab.paths) == 0 {
		t.Fatal("the generated day interned no paths")
	}
	for _, p := range c.tab.paths {
		if strings.Contains(p, "*") {
			t.Errorf("path %q is a rolled name", p)
		}
	}
	listed := 0
	for parent, kids := range c.tab.kids {
		for _, id := range kids {
			listed++
			if c.PathSum(c.tab.paths[id], day, day.Add(24*time.Hour)) == 0 {
				t.Errorf("child %q of path %d counted nothing all day", c.tab.paths[id], parent)
			}
		}
	}
	if listed != len(c.tab.paths) {
		t.Errorf("%d paths listed as someone's child, %d interned", listed, len(c.tab.paths))
	}
}

func TestSymtabSharesPrefixIDs(t *testing.T) {
	tab := newSymtab(2)
	a, _, err := tab.resolve(events.MustParseName("web:home:mentions:stream:avatar:profile_click"), "us")
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := tab.resolve(events.MustParseName("web:home:timeline:stream:tweet:impression"), "jp")
	if err != nil {
		t.Fatal(err)
	}
	if a.prefixID[0] != b.prefixID[0] || a.prefixID[1] != b.prefixID[1] {
		t.Errorf("shared prefixes got distinct IDs: %v vs %v", a.prefixID[:2], b.prefixID[:2])
	}
	if a.prefixID[2] == b.prefixID[2] {
		t.Errorf("distinct sections share an ID")
	}
	if a.id == b.id {
		t.Errorf("distinct names share a name ID")
	}
}

func TestSymtabInvalidNameNotInterned(t *testing.T) {
	tab := newSymtab(2)
	bad := events.EventName{Client: "web"} // empty action
	if _, _, err := tab.resolve(bad, "us"); err == nil {
		t.Fatal("invalid name resolved")
	}
	if _, _, err := tab.resolveFull("not-a-name", "us"); err == nil {
		t.Fatal("invalid full name resolved")
	}
	if len(tab.syms) != 0 {
		t.Fatalf("invalid names were interned: %d syms", len(tab.syms))
	}
}

// TestSymtabConcurrentResolve hammers the read-mostly table from many
// goroutines resolving an overlapping name set; every goroutine must see
// the same sym for the same name (run under -race in CI).
func TestSymtabConcurrentResolve(t *testing.T) {
	tab := newSymtab(4)
	const goroutines = 8
	names := make([]events.EventName, 32)
	for i := range names {
		names[i] = events.MustParseName(fmt.Sprintf("web:page%d:sec:stream:tweet:action%d", i%7, i%5))
	}
	got := make([][]*nameSym, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		got[g] = make([]*nameSym, len(names))
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 200; rep++ {
				for i, n := range names {
					sym, _, err := tab.resolve(n, "us")
					if err != nil {
						t.Error(err)
						return
					}
					if got[g][i] == nil {
						got[g][i] = sym
					} else if got[g][i] != sym {
						t.Errorf("goroutine %d saw two syms for %v", g, n)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for i := range names {
			if got[g][i] != got[0][i] {
				t.Fatalf("goroutines disagree on sym for name %d", i)
			}
		}
	}
	if len(tab.syms) != len(uniqueNames(names)) {
		t.Fatalf("interned %d syms, want %d", len(tab.syms), len(uniqueNames(names)))
	}
}

func uniqueNames(ns []events.EventName) map[events.EventName]bool {
	m := make(map[events.EventName]bool)
	for _, n := range ns {
		m[n] = true
	}
	return m
}
