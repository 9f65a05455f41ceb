package realtime

import (
	"strings"
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
