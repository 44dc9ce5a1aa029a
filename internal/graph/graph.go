package graph

import (
	"errors"
	"fmt"
	"maps"
	"slices"
)

// ID is a node identifier. Identifiers are unique in a network and fit in
// O(log n) bits because they are drawn from a range polynomial in n.
type ID int64

// Edge is an unordered pair of node indices. Normalised so U < V.
type Edge struct {
	U, V int
}

// NewEdge returns the normalised edge {u, v}.
func NewEdge(u, v int) Edge {
	if u > v {
		u, v = v, u
	}
	return Edge{U: u, V: v}
}

// Other returns the endpoint of e different from x.
func (e Edge) Other(x int) int {
	if e.U == x {
		return e.V
	}
	return e.U
}

// Has reports whether x is an endpoint of e.
func (e Edge) Has(x int) bool { return e.U == x || e.V == x }

// Graph is a mutable undirected simple graph. The zero value is an empty
// graph ready to use; nodes are added implicitly by AddNode/AddEdge.
//
// Each edge is stored once, as an entry in both endpoints' adjacency
// lists; there is no separate edge set. HasEdge scans the shorter of the
// two lists. Over all edges of a planar graph those scans total O(m),
// because planar graphs have arboricity at most 3; and a scan never costs
// more than the list scans RemoveEdge needs anyway.
type Graph struct {
	adj  [][]int    // adjacency lists by node index
	ids  []ID       // node index -> identifier
	byID map[ID]int // identifier -> node index
	m    int        // edge count
}

// New returns an empty graph with capacity hints for n nodes.
func New(n int) *Graph {
	return &Graph{
		adj:  make([][]int, 0, n),
		ids:  make([]ID, 0, n),
		byID: make(map[ID]int, n),
	}
}

// NewWithNodes returns a graph with nodes 0..n-1 whose identifiers equal
// their indices. Tests and generators can rescramble IDs afterwards.
func NewWithNodes(n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		g.AddNode(ID(i))
	}
	return g
}

// ErrDuplicateID is returned when adding a node whose identifier is taken.
var ErrDuplicateID = errors.New("graph: duplicate node identifier")

// ErrNoSuchNode is returned when a lookup references an unknown node.
var ErrNoSuchNode = errors.New("graph: no such node")

// AddNode adds a node with the given identifier and returns its index.
// Adding a duplicate identifier returns the existing index and an error.
func (g *Graph) AddNode(id ID) (int, error) {
	if g.byID == nil {
		g.byID = make(map[ID]int)
	}
	if idx, ok := g.byID[id]; ok {
		return idx, fmt.Errorf("%w: %d", ErrDuplicateID, id)
	}
	idx := len(g.adj)
	g.adj = append(g.adj, nil)
	g.ids = append(g.ids, id)
	g.byID[id] = idx
	return idx, nil
}

// MustAddNode adds a node and panics on duplicate identifiers. It is meant
// for generators and tests where identifiers are constructed to be unique.
func (g *Graph) MustAddNode(id ID) int {
	idx, err := g.AddNode(id)
	if err != nil {
		panic(err)
	}
	return idx
}

// AddEdge inserts the undirected edge {u, v} given by node indices.
// Self-loops and duplicate edges are rejected with an error (the model
// works on simple graphs; the paper notes loops and multi-edges do not
// affect planarity).
func (g *Graph) AddEdge(u, v int) error {
	if u == v {
		return fmt.Errorf("graph: self-loop at index %d", u)
	}
	if u < 0 || u >= len(g.adj) || v < 0 || v >= len(g.adj) {
		return fmt.Errorf("%w: edge {%d,%d}", ErrNoSuchNode, u, v)
	}
	if g.HasEdge(u, v) {
		return fmt.Errorf("graph: duplicate edge {%d,%d}", u, v)
	}
	g.m++
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
	return nil
}

// MustAddEdge inserts an edge and panics on structural misuse.
func (g *Graph) MustAddEdge(u, v int) {
	if err := g.AddEdge(u, v); err != nil {
		panic(err)
	}
}

// RemoveEdge deletes the undirected edge {u, v} if present and reports
// whether it was removed.
func (g *Graph) RemoveEdge(u, v int) bool {
	if !g.HasEdge(u, v) {
		return false
	}
	g.m--
	g.adj[u] = removeFirst(g.adj[u], v)
	g.adj[v] = removeFirst(g.adj[v], u)
	return true
}

func removeFirst(s []int, x int) []int {
	for i, v := range s {
		if v == x {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.adj) }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// HasEdge reports whether the edge {u, v} exists (by node index). It is
// false for indices outside 0..N-1.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= len(g.adj) || v < 0 || v >= len(g.adj) {
		return false
	}
	if len(g.adj[u]) > len(g.adj[v]) {
		u, v = v, u
	}
	for _, x := range g.adj[u] {
		if x == v {
			return true
		}
	}
	return false
}

// Neighbors returns the adjacency list of node u. The returned slice is
// owned by the graph and must not be mutated by callers.
func (g *Graph) Neighbors(u int) []int { return g.adj[u] }

// Degree returns the degree of node u.
func (g *Graph) Degree(u int) int { return len(g.adj[u]) }

// IDOf returns the identifier of the node at index u.
func (g *Graph) IDOf(u int) ID { return g.ids[u] }

// IndexOf returns the index of the node with identifier id.
func (g *Graph) IndexOf(id ID) (int, bool) {
	idx, ok := g.byID[id]
	return idx, ok
}

// IDs returns a copy of the index -> identifier table.
func (g *Graph) IDs() []ID {
	out := make([]ID, len(g.ids))
	copy(out, g.ids)
	return out
}

// Edges returns all edges sorted by (U, V). One bucketing pass builds
// the order in O(n + m): visiting v in ascending order, each neighbor
// u < v files {u, v} next in u's bucket.
func (g *Graph) Edges() []Edge {
	next := make([]int, len(g.adj)) // next free slot of u's bucket
	pos := 0
	for u, nbrs := range g.adj {
		next[u] = pos
		for _, v := range nbrs {
			if v > u {
				pos++
			}
		}
	}
	out := make([]Edge, g.m)
	for v, nbrs := range g.adj {
		for _, u := range nbrs {
			if u < v {
				out[next[u]] = Edge{U: u, V: v}
				next[u]++
			}
		}
	}
	return out
}

// Clone returns a deep copy of g. The copy keeps every adjacency list in
// order, so order-sensitive algorithms (the LR planarity DFS, and the
// certificates built from its embedding) see the same graph.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		adj:  make([][]int, len(g.adj)),
		ids:  slices.Clone(g.ids),
		byID: maps.Clone(g.byID),
	}
	c.copyEdges(g)
	return c
}

// copyEdges gives c, which has g's node count and no edges yet, g's
// adjacency lists in order. The lists share one backing array, each
// capped at its length so an append reallocates only that list.
func (c *Graph) copyEdges(g *Graph) {
	slab := make([]int, 0, 2*g.m)
	for u, nbrs := range g.adj {
		if len(nbrs) == 0 {
			continue
		}
		start := len(slab)
		slab = append(slab, nbrs...)
		c.adj[u] = slab[start:len(slab):len(slab)]
	}
	c.m = g.m
}

// RelabelIDs returns a copy of g whose node at index i carries ids[i].
// It fails if len(ids) != N or identifiers collide.
func (g *Graph) RelabelIDs(ids []ID) (*Graph, error) {
	if len(ids) != g.N() {
		return nil, fmt.Errorf("graph: relabel with %d ids for %d nodes", len(ids), g.N())
	}
	c := New(g.N())
	for _, id := range ids {
		if _, err := c.AddNode(id); err != nil {
			return nil, err
		}
	}
	c.copyEdges(g)
	return c, nil
}

// String renders a compact description, useful in test failures.
func (g *Graph) String() string {
	return fmt.Sprintf("graph(n=%d, m=%d)", g.N(), g.M())
}
