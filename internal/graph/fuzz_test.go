package graph

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"testing"
)

// model is the reference FuzzGraphOps checks Graph against: an edge set
// in a map, next to adjacency lists that record insertion order.
type model struct {
	ids   []ID
	adj   [][]int
	edges map[Edge]bool
}

func (m *model) clone() *model {
	c := &model{ids: slices.Clone(m.ids), edges: maps.Clone(m.edges)}
	for _, nbrs := range m.adj {
		c.adj = append(c.adj, slices.Clone(nbrs))
	}
	return c
}

func (m *model) addNode(id ID) (int, error) {
	if i := slices.Index(m.ids, id); i >= 0 {
		return i, fmt.Errorf("%w: %d", ErrDuplicateID, id)
	}
	m.ids = append(m.ids, id)
	m.adj = append(m.adj, nil)
	return len(m.ids) - 1, nil
}

func (m *model) addEdge(u, v int) error {
	n := len(m.ids)
	switch {
	case u == v:
		return fmt.Errorf("graph: self-loop at index %d", u)
	case u < 0 || u >= n || v < 0 || v >= n:
		return fmt.Errorf("%w: edge {%d,%d}", ErrNoSuchNode, u, v)
	case m.edges[NewEdge(u, v)]:
		return fmt.Errorf("graph: duplicate edge {%d,%d}", u, v)
	}
	m.edges[NewEdge(u, v)] = true
	m.adj[u] = append(m.adj[u], v)
	m.adj[v] = append(m.adj[v], u)
	return nil
}

func (m *model) removeEdge(u, v int) bool {
	if !m.edges[NewEdge(u, v)] {
		return false
	}
	delete(m.edges, NewEdge(u, v))
	i, j := slices.Index(m.adj[u], v), slices.Index(m.adj[v], u)
	m.adj[u] = slices.Delete(m.adj[u], i, i+1)
	m.adj[v] = slices.Delete(m.adj[v], j, j+1)
	return true
}

func (m *model) relabel(ids []ID) error {
	if len(ids) != len(m.ids) {
		return fmt.Errorf("graph: relabel with %d ids for %d nodes", len(ids), len(m.ids))
	}
	for i, id := range ids {
		if slices.Contains(ids[:i], id) {
			return fmt.Errorf("%w: %d", ErrDuplicateID, id)
		}
	}
	m.ids = slices.Clone(ids)
	return nil
}

func (m *model) sortedEdges() []Edge {
	out := make([]Edge, 0, len(m.edges))
	for e := range m.edges {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}

// sameAs reports the first difference between g and m, or "".
func sameAs(g *Graph, m *model) string {
	n := len(m.ids)
	if g.N() != n || g.M() != len(m.edges) {
		return fmt.Sprintf("n, m = %d, %d; model %d, %d", g.N(), g.M(), n, len(m.edges))
	}
	if !slices.Equal(g.IDs(), m.ids) {
		return fmt.Sprintf("ids %v; model %v", g.IDs(), m.ids)
	}
	for i, id := range m.ids {
		if idx, ok := g.IndexOf(id); !ok || idx != i {
			return fmt.Sprintf("IndexOf(%d) = %d, %v; model %d", id, idx, ok, i)
		}
	}
	for u := -1; u <= n; u++ {
		for v := -1; v <= n; v++ {
			if g.HasEdge(u, v) != m.edges[NewEdge(u, v)] {
				return fmt.Sprintf("HasEdge(%d, %d) = %v", u, v, g.HasEdge(u, v))
			}
		}
	}
	if got, want := g.Edges(), m.sortedEdges(); !slices.Equal(got, want) {
		return fmt.Sprintf("Edges() = %v; model %v", got, want)
	}
	for u := 0; u < n; u++ {
		if !slices.Equal(g.Neighbors(u), m.adj[u]) {
			return fmt.Sprintf("Neighbors(%d) = %v; model %v", u, g.Neighbors(u), m.adj[u])
		}
	}
	return ""
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// FuzzGraphOps drives random sequences of AddNode, AddEdge, RemoveEdge,
// Clone and RelabelIDs on graphs of at most 16 nodes, checking every
// result and the whole graph after each step against model. A copy
// taken by Clone is checked again at the end, after the sequence has
// mutated its successor.
func FuzzGraphOps(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 3, 1, 1, 2, 1, 2, 3, 1, 3, 1, 2, 2, 1, 3, 1, 1, 3, 4, 9, 8, 7})
	f.Add([]byte{0, 5, 0, 5, 1, 0, 0, 1, 1, 1, 0, 0, 3, 2, 2, 1, 2, 0, 0, 4, 1, 1})
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 4, 1, 1, 2, 1, 1, 3, 1, 1, 4, 1, 2, 3, 4, 1, 2, 3, 4, 5, 2, 1, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := int(data[0])
			data = data[1:]
			return b
		}
		g, m := new(Graph), &model{edges: map[Edge]bool{}}
		var prev *Graph
		var prevModel *model
		for step := 0; len(data) > 0; step++ {
			n := len(m.ids)
			// Endpoints range over -1..n so that out-of-range indices
			// are exercised too.
			endpoint := func() int { return next()%(n+2) - 1 }
			var op string
			switch next() % 5 {
			case 0:
				id := ID(next())
				if n == 16 {
					continue
				}
				op = fmt.Sprintf("AddNode(%d)", id)
				gi, gerr := g.AddNode(id)
				mi, merr := m.addNode(id)
				if gi != mi || errText(gerr) != errText(merr) {
					t.Fatalf("step %d %s = %d, %v; model %d, %v", step, op, gi, gerr, mi, merr)
				}
			case 1:
				u, v := endpoint(), endpoint()
				op = fmt.Sprintf("AddEdge(%d, %d)", u, v)
				if gerr, merr := g.AddEdge(u, v), m.addEdge(u, v); errText(gerr) != errText(merr) {
					t.Fatalf("step %d %s = %v; model %v", step, op, gerr, merr)
				}
			case 2:
				u, v := endpoint(), endpoint()
				op = fmt.Sprintf("RemoveEdge(%d, %d)", u, v)
				if got, want := g.RemoveEdge(u, v), m.removeEdge(u, v); got != want {
					t.Fatalf("step %d %s = %v; model %v", step, op, got, want)
				}
			case 3:
				op = "Clone()"
				prev, prevModel = g, m.clone()
				g = g.Clone()
			case 4:
				ids := make([]ID, n+next()%8/7) // one too many, now and then
				for i := range ids {
					ids[i] = ID(next())
				}
				op = fmt.Sprintf("RelabelIDs(%v)", ids)
				r, gerr := g.RelabelIDs(ids)
				if merr := m.relabel(ids); errText(gerr) != errText(merr) {
					t.Fatalf("step %d %s error %v; model %v", step, op, gerr, merr)
				}
				if gerr == nil {
					g = r
				}
			}
			if diff := sameAs(g, m); diff != "" {
				t.Fatalf("step %d after %s: %s", step, op, diff)
			}
		}
		if prev != nil {
			if diff := sameAs(prev, prevModel); diff != "" {
				t.Fatalf("clone's source changed: %s", diff)
			}
		}
	})
}
