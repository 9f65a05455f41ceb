package flowviz

import (
	"bytes"
	"strings"
	"testing"
)

func TestBuildCounts(t *testing.T) {
	seqs := []string{"abc", "abd", "ab", "xyz"}
	tree := Build(seqs, 0)
	if tree.Sessions != 4 {
		t.Fatalf("sessions = %d", tree.Sessions)
	}
	if got := pathCount(tree, "ab"); got != 3 {
		t.Fatalf("pathCount(ab) = %d", got)
	}
	if got := pathCount(tree, "abc"); got != 1 {
		t.Fatalf("pathCount(abc) = %d", got)
	}
	if got := pathCount(tree, "zz"); got != 0 {
		t.Fatalf("pathCount(zz) = %d", got)
	}
	// One session terminates exactly at "ab".
	cur := tree.Root
	for _, r := range "ab" {
		cur = cur.Children[r]
	}
	if cur.Terminal != 1 {
		t.Fatalf("Terminal(ab) = %d", cur.Terminal)
	}
}

func TestMaxDepthTruncation(t *testing.T) {
	tree := Build([]string{"abcdefgh"}, 3)
	if pathCount(tree, "abc") != 1 {
		t.Fatal("depth-3 path missing")
	}
	if pathCount(tree, "abcd") != 0 {
		t.Fatal("path deeper than maxDepth present")
	}
}

func TestRender(t *testing.T) {
	seqs := []string{"ab", "ab", "ab", "ac", "ac", "zz"}
	tree := Build(seqs, 0)
	var buf bytes.Buffer
	names := map[rune]string{'a': "page:open", 'b': "tweet:impression", 'c': "wtf:impression", 'z': "search:query"}
	tree.Render(&buf, func(r rune) (string, bool) {
		n, ok := names[r]
		return n, ok
	}, RenderOptions{MinCount: 2, MaxChildren: 5, BarWidth: 10})
	out := buf.String()
	for _, want := range []string{"6 sessions", "page:open", "tweet:impression", "█", " 5\n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	// The zz path (count 1 < MinCount 2... actually 'z' child has count 1)
	// is pruned.
	if strings.Contains(out, "search:query") {
		t.Fatalf("pruned path rendered:\n%s", out)
	}
}

func TestRenderPrunesBranches(t *testing.T) {
	seqs := []string{"ab", "ac", "ad", "ae", "af", "ab", "ac", "ad", "ae", "af"}
	tree := Build(seqs, 0)
	var buf bytes.Buffer
	tree.Render(&buf, nil, RenderOptions{MinCount: 1, MaxChildren: 2, BarWidth: 0})
	out := buf.String()
	if !strings.Contains(out, "more branches") {
		t.Fatalf("branch pruning note missing:\n%s", out)
	}
}

func TestEmptyTree(t *testing.T) {
	tree := Build(nil, 0)
	var buf bytes.Buffer
	tree.Render(&buf, nil, DefaultRenderOptions)
	if !strings.Contains(buf.String(), "0 sessions") {
		t.Fatalf("out = %q", buf.String())
	}
}

// pathCount returns how many sessions start with the given symbol prefix.
func pathCount(t *Tree, prefix string) int {
	cur := t.Root
	for _, r := range prefix {
		next := cur.Children[r]
		if next == nil {
			return 0
		}
		cur = next
	}
	return cur.Count
}
