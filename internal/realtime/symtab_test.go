package realtime

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"unilog/internal/events"
)

// TestSymtabPathsAreHierarchyPrefixes: the path space holds what a bucket's
// prefix cache is keyed by and nothing else. After the generated day no path
// is a rolled name and each is listed once, under its parent; and a path the
// day counted is the sum of its children, the counts TopK ranks.
func TestSymtabPathsAreHierarchyPrefixes(t *testing.T) {
	c := newCounter(t, Config{})
	ingestGeneratedDay(c)
	paths := events.Paths()
	if len(paths) == 0 {
		t.Fatal("the generated day numbered no paths")
	}
	for _, p := range paths {
		if strings.Contains(p, "*") {
			t.Errorf("path %q is a rolled name", p)
		}
	}
	to := day.Add(24 * time.Hour)
	listed := make(map[uint32]int)
	var walk func(parent uint32, depth int)
	walk = func(parent uint32, depth int) {
		var sum int64
		for _, id := range events.PathChildren(parent) {
			listed[id]++
			sum += c.PathSum(paths[id], day, to)
			walk(id, depth+1)
		}
		if parent != events.NoParent && depth < events.NumComponents {
			if want := c.PathSum(paths[parent], day, to); sum != want {
				t.Errorf("children of %q counted %d all day, the path %d", paths[parent], sum, want)
			}
		}
	}
	walk(events.NoParent, 0)
	for id, p := range paths {
		if listed[uint32(id)] != 1 {
			t.Errorf("path %q listed as a child %d times, want once", p, listed[uint32(id)])
		}
	}
}

// TestSymtabConcurrentCountries: goroutines numbering an overlapping set of
// countries at once agree on every ID, and each code is numbered once (run
// under -race in CI).
func TestSymtabConcurrentCountries(t *testing.T) {
	tab := newSymtab()
	codes := make([]string, 12)
	for i := range codes {
		codes[i] = fmt.Sprintf("c%d", i)
	}
	const goroutines = 8
	got := make([][]uint32, goroutines)
	var wg sync.WaitGroup
	for g := range got {
		got[g] = make([]uint32, len(codes))
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 100; rep++ {
				for i := range codes {
					// Each goroutine starts at its own offset.
					j := (i + g) % len(codes)
					id := tab.country(codes[j])
					if rep > 0 && got[g][j] != id {
						t.Errorf("goroutine %d saw two IDs for %q", g, codes[j])
						return
					}
					got[g][j] = id
				}
			}
		}(g)
	}
	wg.Wait()
	if n := len(tab.countries()); n != len(codes) {
		t.Fatalf("numbered %d countries, want %d", n, len(codes))
	}
	for g := range got {
		for i, code := range codes {
			if got[g][i] != got[0][i] || tab.countryName(got[g][i]) != code {
				t.Fatalf("goroutine %d: %q has ID %d, goroutine 0 %d", g, code, got[g][i], got[0][i])
			}
		}
	}
}
