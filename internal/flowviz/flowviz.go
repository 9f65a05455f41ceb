// Package flowviz aggregates session sequences into a prefix tree and
// renders it as text — a terminal-friendly take on the §6 "ongoing work"
// item of using visualization "to provide data scientists a visual
// interface for exploring sessions", citing LifeFlow (Wongsuphasawat et
// al., CHI 2011). LifeFlow's core idea is exactly this: aggregate many
// event sequences into a tree of shared prefixes whose node sizes show how
// many sessions flow through each path.
package flowviz

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Node is one prefix-tree vertex: the sessions whose next event after this
// node's prefix was Symbol.
type Node struct {
	Symbol   rune
	Count    int
	Children map[rune]*Node
	// Terminal counts sessions that end exactly here.
	Terminal int
}

// Tree is the aggregated flow of a set of sessions.
type Tree struct {
	Root     *Node
	Sessions int
	MaxDepth int
}

// Build aggregates sequences into a prefix tree truncated at maxDepth
// events (0 means unlimited).
func Build(seqs []string, maxDepth int) *Tree {
	t := &Tree{
		Root:     &Node{Children: make(map[rune]*Node)},
		MaxDepth: maxDepth,
	}
	for _, seq := range seqs {
		t.Sessions++
		cur := t.Root
		cur.Count++
		depth := 0
		for _, r := range seq {
			if maxDepth > 0 && depth >= maxDepth {
				break
			}
			child := cur.Children[r]
			if child == nil {
				child = &Node{Symbol: r, Children: make(map[rune]*Node)}
				cur.Children[r] = child
			}
			child.Count++
			cur = child
			depth++
		}
		cur.Terminal++
	}
	return t
}

// Namer resolves a symbol to a display label; session.Dictionary.Name
// satisfies it.
type Namer func(rune) (string, bool)

// RenderOptions controls the text rendering.
type RenderOptions struct {
	// MinCount prunes paths carrying fewer sessions.
	MinCount int
	// MaxChildren keeps only the most-travelled branches per node.
	MaxChildren int
	// BarWidth scales the proportional count bar (0 disables bars).
	BarWidth int
}

// DefaultRenderOptions suit a terminal.
var DefaultRenderOptions = RenderOptions{MinCount: 2, MaxChildren: 4, BarWidth: 20}

// Render writes the flow tree as indented text with proportional bars:
//
//	├─ web:home:::page:open                          ████████████ 240
//	│  ├─ web:home:timeline:stream:tweet:impression  ████████ 180
func (t *Tree) Render(w io.Writer, name Namer, opts RenderOptions) {
	fmt.Fprintf(w, "%d sessions\n", t.Sessions)
	t.renderNode(w, t.Root, "", name, opts)
}

func (t *Tree) renderNode(w io.Writer, n *Node, indent string, name Namer, opts RenderOptions) {
	kids := make([]*Node, 0, len(n.Children))
	for _, c := range n.Children {
		if c.Count >= opts.MinCount {
			kids = append(kids, c)
		}
	}
	sort.Slice(kids, func(i, j int) bool {
		if kids[i].Count != kids[j].Count {
			return kids[i].Count > kids[j].Count
		}
		return kids[i].Symbol < kids[j].Symbol
	})
	pruned := 0
	if opts.MaxChildren > 0 && len(kids) > opts.MaxChildren {
		pruned = len(kids) - opts.MaxChildren
		kids = kids[:opts.MaxChildren]
	}
	for i, c := range kids {
		connector, childIndent := "├─ ", indent+"│  "
		if i == len(kids)-1 && pruned == 0 {
			connector, childIndent = "└─ ", indent+"   "
		}
		label := fmt.Sprintf("%U", c.Symbol)
		if name != nil {
			if s, ok := name(c.Symbol); ok {
				label = s
			}
		}
		bar := ""
		if opts.BarWidth > 0 && t.Sessions > 0 {
			width := c.Count * opts.BarWidth / t.Sessions
			if width < 1 {
				width = 1
			}
			bar = " " + strings.Repeat("█", width)
		}
		fmt.Fprintf(w, "%s%s%s%s %d\n", indent, connector, label, bar, c.Count)
		t.renderNode(w, c, childIndent, name, opts)
	}
	if pruned > 0 {
		fmt.Fprintf(w, "%s└─ … %d more branches\n", indent, pruned)
	}
}
