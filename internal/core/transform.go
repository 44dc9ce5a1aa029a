package core

import (
	"fmt"

	"github.com/planarcert/planarcert/internal/embedding"
	"github.com/planarcert/planarcert/internal/graph"
	"github.com/planarcert/planarcert/internal/planarity"
)

// Transform is the outcome of cutting a planar graph along a spanning tree
// (Section 3.2 of the paper): a DFS tree T following the rotation system,
// the DFS-mapping f onto ranks 1..2n-1, and the induced path-outerplanar
// graph G_{T,f} whose identity order is a witness (Lemma 3).
type Transform struct {
	G    *graph.Graph
	Root int

	// Parent is the tree parent of every vertex (Parent[Root] = Root).
	Parent []int
	// ChildOrder lists each vertex's children in the counterclockwise
	// order ν of the embedding, starting after the parent edge.
	ChildOrder [][]int
	// Depth is the DFS tree depth of each vertex.
	Depth []int

	// N2 = 2n-1 is the number of ranks of G_{T,f}.
	N2 int
	// F maps rank (1-based) to the original vertex index.
	F []int
	// Copies maps each vertex to its ranks i_1 < ... < i_d.
	Copies [][]int

	// POEdges is the full edge set of G_{T,f} in rank space: the path
	// edges {i, i+1}, then the mapped cotree edges in edges order.
	POEdges []graph.Edge
	// Intervals holds I(x) for each rank x (index 0 unused), as computed
	// by the nesting sweep; present only after a successful Build.
	Intervals []Interval

	// edges lists G's edges in graph.Edges order. For a cotree edge,
	// edgeRanks[i] is [rank of edges[i].U's copy, rank of edges[i].V's
	// copy]; for a tree edge it is {0, 0}. The certificate builder reads
	// both by index.
	edges     []graph.Edge
	edgeRanks [][2]int
}

// BuildTransform computes the transform for a connected planar graph g
// using the planar rotation system rot, rooting the spanning tree at
// vertex root. It returns an error if g is disconnected or if the
// construction fails to produce a path-outerplanar graph (which, by
// Lemma 3, indicates rot is not a planar embedding).
//
// It works on rot's half-edge CSR layout (embedding.HalfEdges): the DFS
// walks slots, a backward sweep over each rotation gives every slot the
// rank of the copy its edge attaches to, and the twin array gives each
// edge's slot at its other endpoint. All of it is O(n + m).
func BuildTransform(g *graph.Graph, rot *embedding.Rotation, root int) (*Transform, error) {
	n := g.N()
	if n == 0 {
		return nil, fmt.Errorf("core: empty graph has no transform")
	}
	if err := rot.Validate(g); err != nil {
		return nil, fmt.Errorf("core: invalid rotation: %w", err)
	}
	he, ok := rot.HalfEdges()
	if !ok { // unreachable: Validate accepted rot
		return nil, fmt.Errorf("core: invalid rotation: inconsistent half-edges")
	}
	t := &Transform{
		G:      g,
		Root:   root,
		Parent: make([]int, n),
		Depth:  make([]int, n),
		N2:     2*n - 1,
		F:      make([]int, 2*n),
	}
	// start[v] is the position in v's rotation where v's DFS scan starts
	// counting: the parent slot, or 0 at the root.
	start := make([]int, n)
	for i := range t.Parent {
		t.Parent[i] = -1
		t.Depth[i] = -1
	}
	t.Parent[root] = root
	t.Depth[root] = 0

	// DFS following the rotation: at v, scan neighbors starting just after
	// the parent's slot (for the root: from slot 0, i.e. the virtual r'
	// sits before slot 0). Unvisited neighbors become children in that
	// order. Each frame holds the next scan offset from start[v]; a
	// vertex gets a rank on entry and again after each child returns.
	type frame struct{ v, s int }
	counter := 1
	t.F[1] = root
	stack := []frame{{root, 0}}
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		v := top.v
		deg := he.Off[v+1] - he.Off[v]
		if top.s == deg {
			stack = stack[:len(stack)-1]
			if len(stack) > 0 {
				counter++
				t.F[counter] = stack[len(stack)-1].v
			}
			continue
		}
		h := he.Off[v] + (start[v]+top.s)%deg
		top.s++
		w := he.Head[h]
		if t.Depth[w] != -1 {
			continue // the parent, or a cotree edge
		}
		t.Parent[w] = v
		t.Depth[w] = t.Depth[v] + 1
		start[w] = he.Twin[h] - he.Off[w]
		counter++
		t.F[counter] = w
		stack = append(stack, frame{w, 1})
	}
	if counter != t.N2 {
		return nil, fmt.Errorf("core: DFS covered %d ranks, want %d (graph disconnected?)", counter, t.N2)
	}
	t.Copies, t.ChildOrder = copiesOf(t.F[1:t.N2+1], n)

	// Every slot's copy (Lemma 3): scanning v's rotation forward from a
	// slot, the first tree-child slot c_k gives copy i_k, and wrapping to
	// the parent slot (or the root's virtual r' boundary) gives copy i_d.
	// One backward sweep from the boundary assigns all of them.
	copyAt := make([]int, len(he.Head))
	for v := 0; v < n; v++ {
		deg := he.Off[v+1] - he.Off[v]
		copies := t.Copies[v]
		k := len(copies) - 1
		for off := deg - 1; off >= 0; off-- {
			h := he.Off[v] + (start[v]+off)%deg
			copyAt[h] = copies[k]
			if w := he.Head[h]; t.Parent[w] == v {
				k--
			}
		}
	}

	// G's edges in graph.Edges order, by one bucketing pass: visiting v in
	// ascending order, each slot (v, u) with u < v files the twin slot
	// (u, v) under u, so every bucket comes out sorted by v.
	m := g.M()
	edgeOff := make([]int, n+1)
	for v := 0; v < n; v++ {
		for _, u := range he.Head[he.Off[v]:he.Off[v+1]] {
			if u < v {
				edgeOff[u+1]++
			}
		}
	}
	for u := 0; u < n; u++ {
		edgeOff[u+1] += edgeOff[u]
	}
	edgeSlot := make([]int, m)
	for v := 0; v < n; v++ {
		for h := he.Off[v]; h < he.Off[v+1]; h++ {
			if u := he.Head[h]; u < v {
				edgeSlot[edgeOff[u]] = he.Twin[h]
				edgeOff[u]++
			}
		}
	}

	// Path edges of G_{T,f}, then the cotree edges in edge order.
	t.POEdges = make([]graph.Edge, 0, t.N2-1+m-(n-1))
	for i := 1; i < t.N2; i++ {
		t.POEdges = append(t.POEdges, graph.NewEdge(i, i+1))
	}
	t.edges = make([]graph.Edge, m)
	t.edgeRanks = make([][2]int, m)
	for i, u := 0, 0; i < m; i++ {
		for i == edgeOff[u] { // edgeOff[u] now ends u's bucket
			u++
		}
		s := edgeSlot[i]
		v := he.Head[s]
		t.edges[i] = graph.Edge{U: u, V: v}
		if t.Parent[u] == v || t.Parent[v] == u {
			continue // tree edge
		}
		rr := [2]int{copyAt[s], copyAt[he.Twin[s]]}
		t.edgeRanks[i] = rr
		t.POEdges = append(t.POEdges, graph.NewEdge(rr[0], rr[1]))
	}

	// Compute intervals; the sweep also proves the identity order is a
	// path-outerplanarity witness (Lemma 3).
	intervals, err := ComputeIntervals(t.N2, cotreeOnly(t))
	if err != nil {
		return nil, fmt.Errorf("core: G_{T,f} not path-outerplanar: %w", err)
	}
	t.Intervals = intervals
	return t, nil
}

// CotreeRanks maps every cotree edge e (normalised, e.U < e.V as
// indices) to the pair [rank of e.U's copy, rank of e.V's copy]. It is
// built on each call; the prover itself reads the ranks by edge index.
func (t *Transform) CotreeRanks() map[graph.Edge][2]int {
	out := make(map[graph.Edge][2]int, len(t.edges)-len(t.Parent)+1)
	for i, rr := range t.edgeRanks {
		if rr != [2]int{} {
			out[t.edges[i]] = rr
		}
	}
	return out
}

// copiesOf inverts the DFS mapping f (f[i] is the vertex of rank i+1):
// each vertex's ranks in ascending order, and its children in DFS order
// (the k-th child's subtree starts right after the vertex's k-th copy).
// Both tables are carved from one backing array each, every row capped
// at its length.
func copiesOf(f []int, n int) (copies, children [][]int) {
	off := make([]int, n+1)
	for _, v := range f {
		off[v+1]++
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	ranks := make([]int, len(f))
	kids := make([]int, 0, n-1)
	copies = make([][]int, n)
	children = make([][]int, n)
	fill := off[:n]
	for i, v := range f {
		ranks[fill[v]] = i + 1
		fill[v]++
	}
	// fill[v] now equals the start of v+1's row.
	for v, lo := 0, 0; v < n; v++ {
		hi := fill[v]
		copies[v] = ranks[lo:hi:hi]
		if hi-lo > 1 {
			k0 := len(kids)
			for _, r := range ranks[lo : hi-1] {
				kids = append(kids, f[r]) // the vertex of rank r+1
			}
			children[v] = kids[k0:len(kids):len(kids)]
		}
		lo = hi
	}
	return copies, children
}

// cotreeOnly lists the non-path PO edges (path edges never strictly cover
// a rank and never cross anything).
func cotreeOnly(t *Transform) []graph.Edge { return t.POEdges[t.N2-1:] }

// TransformOf is the honest-prover pipeline: test planarity, audit the
// embedding, and build the transform rooted at vertex 0.
func TransformOf(g *graph.Graph) (*Transform, error) {
	ok, rot, err := planarity.Check(g)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("core: graph is not planar")
	}
	planar, err := rot.IsPlanar(g)
	if err != nil {
		return nil, err
	}
	if !planar {
		return nil, fmt.Errorf("core: embedding failed Euler audit")
	}
	return BuildTransform(g, rot, 0)
}

// ContractBack verifies Lemma 4's round trip: contracting the path edges
// {i, i+1} with f(i) = f(i+1+...)... — concretely, mapping every rank back
// through F and re-adding the cotree edges — must reproduce exactly the
// original graph.
func (t *Transform) ContractBack() (*graph.Graph, error) {
	g := graph.New(t.G.N())
	for v := 0; v < t.G.N(); v++ {
		g.MustAddNode(t.G.IDOf(v))
	}
	addOnce := func(u, v int) {
		if u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v)
		}
	}
	for _, po := range t.POEdges {
		addOnce(t.F[po.U], t.F[po.V])
	}
	// The contraction must reproduce G exactly.
	if g.M() != t.G.M() {
		return nil, fmt.Errorf("core: contraction has %d edges, original %d", g.M(), t.G.M())
	}
	for _, e := range t.G.Edges() {
		if !g.HasEdge(e.U, e.V) {
			return nil, fmt.Errorf("core: contraction lost edge %v", e)
		}
	}
	return g, nil
}

// NumCopies returns d(v), the number of ranks mapped to v.
func (t *Transform) NumCopies(v int) int { return len(t.Copies[v]) }
