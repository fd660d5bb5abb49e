package main

import (
	"fmt"
	"strconv"
	"strings"

	"nose/internal/model"
	"nose/internal/workload"
)

// renderDSL renders an in-memory model and workload as .nose DSL text,
// the only input format nosed accepts. Statement weights are the
// active mix's, printed with full float precision so nosedsl.Parse
// reads back the exact bits. Definition order of entities, attributes
// and every entity's edges is preserved, because the enumerator names
// column families in that order and the benchmark requires
// byte-identical advisor output for the rendered and the in-memory
// workload.
func renderDSL(w *workload.Workload) string {
	var b strings.Builder
	g := w.Graph
	for _, e := range g.Entities() {
		fmt.Fprintf(&b, "entity %s %s %d\n", e.Name, e.Key().Name, e.Count)
		for _, a := range e.NonKeyAttributes() {
			fmt.Fprintf(&b, "attr %s %s", a.QualifiedName(), a.Type)
			if a.Cardinality > 0 {
				fmt.Fprintf(&b, " cardinality %d", a.Cardinality)
			}
			if a.Size > 0 {
				fmt.Fprintf(&b, " size %d", a.Size)
			}
			b.WriteByte('\n')
		}
	}
	for _, fwd := range relationshipOrder(g) {
		inv := fwd.Inverse
		kind := model.OneToMany
		switch {
		case fwd.Card == model.One && inv.Card == model.One:
			kind = model.OneToOne
		case fwd.Card == model.Many && inv.Card == model.Many:
			kind = model.ManyToMany
		}
		fmt.Fprintf(&b, "rel %s.%s %s.%s %s\n", fwd.From.Name, fwd.Name, inv.From.Name, inv.Name, kind)
	}
	for _, ws := range w.Statements {
		text := ws.Statement.String()
		fmt.Fprintf(&b, "stmt %s", strconv.FormatFloat(w.Weight(ws), 'g', -1, 64))
		// workload.Label falls back to the text of an unlabelled statement.
		if label := workload.Label(ws.Statement); label != text {
			fmt.Fprintf(&b, " %s", label)
		}
		fmt.Fprintf(&b, ": %s\n", text)
	}
	return b.String()
}

// relationshipOrder returns each relationship's forward edge in an
// order that, replayed through Graph.AddRelationship, rebuilds every
// entity's edge list in its original order. An entity's edge order is
// the order its relationships were added, so a relationship may be
// emitted once both of its edges are the next unemitted edge of their
// entities; the original definition order is one such sequence, so the
// loop always makes progress on a graph built by AddRelationship.
func relationshipOrder(g *model.Graph) []*model.Edge {
	next := map[*model.Entity]int{}
	remaining := 0
	for _, e := range g.Entities() {
		remaining += len(e.Edges())
	}
	var out []*model.Edge
	for remaining > 0 {
		progressed := false
		for _, e := range g.Entities() {
			edges := e.Edges()
			for next[e] < len(edges) {
				ed := edges[next[e]]
				peer := ed.To
				if peerEdges := peer.Edges(); peer != e && peerEdges[next[peer]] != ed.Inverse {
					break
				}
				// The forward edge of a one-to-many relationship is its
				// Many side; symmetric kinds have no distinguishable
				// direction, so the first edge met serves.
				fwd := ed
				if ed.Card == model.One && ed.Inverse.Card == model.Many {
					fwd = ed.Inverse
				}
				out = append(out, fwd)
				next[e]++
				next[peer]++
				remaining -= 2
				progressed = true
			}
		}
		if !progressed {
			panic("bench: relationship edges are not in a replayable order")
		}
	}
	return out
}
