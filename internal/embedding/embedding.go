// Package embedding implements combinatorial embeddings (rotation systems)
// of graphs, face traversal, and the Euler-formula audit used to validate
// that a rotation system is a genuine planar embedding.
//
// A rotation system fixes, for every vertex, a cyclic order of its incident
// half-edges. A rotation system determines a set of faces by the standard
// face-tracing rule: from the directed edge (u,v), the next directed edge is
// (v,w) where w is the successor of u in the rotation at v. The rotation
// system is planar (genus 0) iff n - m + f = 1 + c for c connected
// components, i.e. n - m + f = 2 for connected graphs.
package embedding

import (
	"fmt"

	"github.com/planarcert/planarcert/internal/graph"
)

// Rotation is a combinatorial embedding: Order[u] lists the neighbors of u
// in (counter)clockwise cyclic order. Which geometric orientation "first"
// corresponds to is irrelevant combinatorially; all algorithms in this
// module only rely on consistency.
type Rotation struct {
	Order [][]int
}

// NewRotation returns an empty rotation system for n vertices.
func NewRotation(n int) *Rotation {
	return &Rotation{Order: make([][]int, n)}
}

// FromAdjacency builds a rotation system that uses the graph's adjacency
// order as the cyclic order. This is *a* rotation system, not necessarily a
// planar one; useful for tests.
func FromAdjacency(g *graph.Graph) *Rotation {
	r := NewRotation(g.N())
	for u := 0; u < g.N(); u++ {
		r.Order[u] = append([]int(nil), g.Neighbors(u)...)
	}
	return r
}

// Validate checks that the rotation system matches the graph: every vertex
// lists exactly its neighbors, once each. Two stamp arrays stand in for
// per-vertex sets: nbr[v] == u+1 marks v as a neighbor of u, and
// listed[v] == u+1 marks v as already listed in u's rotation.
func (r *Rotation) Validate(g *graph.Graph) error {
	n := g.N()
	if len(r.Order) != n {
		return fmt.Errorf("embedding: rotation has %d vertices, graph has %d", len(r.Order), n)
	}
	stamps := make([]int, 2*n)
	nbr, listed := stamps[:n], stamps[n:]
	for u := 0; u < n; u++ {
		if len(r.Order[u]) != g.Degree(u) {
			return fmt.Errorf("embedding: vertex %d rotation lists %d neighbors, degree is %d",
				u, len(r.Order[u]), g.Degree(u))
		}
		stamp := u + 1
		for _, v := range g.Neighbors(u) {
			nbr[v] = stamp
		}
		for _, v := range r.Order[u] {
			if v < 0 || v >= n || nbr[v] != stamp {
				return fmt.Errorf("embedding: rotation at %d lists non-neighbor %d", u, v)
			}
			if listed[v] == stamp {
				return fmt.Errorf("embedding: rotation at %d lists %d twice", u, v)
			}
			listed[v] = stamp
		}
	}
	return nil
}

// HalfEdges is a rotation system in CSR (compressed sparse row) form.
// Vertex u's half-edges are the slots Off[u] .. Off[u+1]-1, in rotation
// order: slot h is the directed edge (u, Head[h]), and Twin[h] is the
// slot of the reverse edge (Head[h], u) in the rotation at Head[h].
type HalfEdges struct {
	Off, Head, Twin []int
}

// HalfEdges builds the CSR layout of r in O(n + m). One bucketing pass
// groups the slots by head vertex; then, per vertex v, a stamp array
// gives each neighbor's position in v's rotation, and so the twin of
// every slot that enters v. It reports false if r is not consistent: a
// listed vertex out of range, or u listing v without v listing u once.
func (r *Rotation) HalfEdges() (HalfEdges, bool) {
	n := len(r.Order)
	slots := 0
	for _, rot := range r.Order {
		slots += len(rot)
	}
	flat := make([]int, n+1+2*slots)
	he := HalfEdges{Off: flat[:n+1], Head: flat[n+1 : n+1+slots], Twin: flat[n+1+slots:]}
	for u, rot := range r.Order {
		he.Off[u+1] = he.Off[u] + len(rot)
		copy(he.Head[he.Off[u]:], rot)
	}
	// into[Off[v] .. Off[v+1]-1] lists the slots whose head is v, and
	// tail[h] is the vertex slot h leaves. fill counts each bucket, then
	// serves as pos: pos[w] is w's position in the rotation of the vertex
	// being matched, valid while stamp[w] is that vertex plus one.
	tmp := make([]int, 2*slots+2*n)
	into, tail, fill, stamp := tmp[:slots], tmp[slots:2*slots], tmp[2*slots:2*slots+n], tmp[2*slots+n:]
	for u, rot := range r.Order {
		for i, v := range rot {
			if v < 0 || v >= n || fill[v] == len(r.Order[v]) {
				return HalfEdges{}, false
			}
			h := he.Off[u] + i
			into[he.Off[v]+fill[v]] = h
			fill[v]++
			tail[h] = u
		}
	}
	pos := fill
	for v, rot := range r.Order {
		for j, w := range rot {
			pos[w], stamp[w] = j, v+1
		}
		for _, h := range into[he.Off[v]:he.Off[v+1]] {
			u := tail[h]
			if stamp[u] != v+1 {
				return HalfEdges{}, false
			}
			he.Twin[h] = he.Off[v] + pos[u]
		}
	}
	return he, true
}

// Next returns the slot that follows h on its face: for h = (u, v) it
// is (v, w), with w the successor of u in the rotation at v.
func (he HalfEdges) Next(h int) int {
	t := he.Twin[h] + 1
	if v := he.Head[h]; t == he.Off[v+1] {
		t = he.Off[v]
	}
	return t
}

// traceFace marks every slot of the face through h in seen, a bitmap
// over slots, unless h is already marked. It reports whether h opened a
// new face.
func (he HalfEdges) traceFace(h int, seen []uint64) bool {
	if seen[h>>6]&(1<<uint(h&63)) != 0 {
		return false
	}
	for x := h; seen[x>>6]&(1<<uint(x&63)) == 0; x = he.Next(x) {
		seen[x>>6] |= 1 << uint(x&63)
	}
	return true
}

// newSlotBitmap returns an all-clear bitmap over the slots.
func (he HalfEdges) newSlotBitmap() []uint64 {
	return make([]uint64, (len(he.Head)+63)/64)
}

// Genus computes the total (orientable) genus of the rotation system,
// summed over connected components. For each component, Euler's
// relation on its embedding surface gives n_c - m_c + f_c = 2 - 2*genus_c,
// where f_c counts the faces traced within that component (an isolated
// vertex traces no half-edge and contributes its single face directly).
// r must be a valid rotation system of g (see Validate); the count then
// reads r alone, and for an inconsistent r Genus returns -1.
func (r *Rotation) Genus(g *graph.Graph) int {
	he, ok := r.HalfEdges()
	if !ok {
		return -1
	}
	n := len(r.Order)
	seen := he.newSlotBitmap()
	inComp := make([]bool, n)
	comp := make([]int, 0, n)
	total := 0
	for s := 0; s < n; s++ {
		if inComp[s] {
			continue
		}
		// Collect s's component breadth-first, counting its half-edges.
		comp = append(comp[:0], s)
		inComp[s] = true
		halves := 0
		for i := 0; i < len(comp); i++ {
			u := comp[i]
			halves += len(r.Order[u])
			for _, v := range r.Order[u] {
				if !inComp[v] {
					inComp[v] = true
					comp = append(comp, v)
				}
			}
		}
		if halves == 0 {
			continue // an isolated vertex has exactly one face: genus 0
		}
		faces := 0
		for _, u := range comp {
			for h := he.Off[u]; h < he.Off[u+1]; h++ {
				if he.traceFace(h, seen) {
					faces++
				}
			}
		}
		total += (2 - len(comp) + halves/2 - faces) / 2
	}
	return total
}

// IsPlanar reports whether the rotation system is a planar (genus-0)
// embedding of g, after validating structural consistency. This Euler
// audit runs on every planarity proof, so it works on flat arrays in
// O(n + m) with a constant number of allocations.
func (r *Rotation) IsPlanar(g *graph.Graph) (bool, error) {
	if err := r.Validate(g); err != nil {
		return false, err
	}
	if g.N() == 0 {
		return true, nil
	}
	return r.Genus(g) == 0, nil
}

// Clone returns a deep copy of the rotation system.
func (r *Rotation) Clone() *Rotation {
	c := NewRotation(len(r.Order))
	for u := range r.Order {
		c.Order[u] = append([]int(nil), r.Order[u]...)
	}
	return c
}

// FaceCount returns the number of faces traced by the rotation system,
// or -1 if r is not consistent (see Validate).
func (r *Rotation) FaceCount() int {
	he, ok := r.HalfEdges()
	if !ok {
		return -1
	}
	seen := he.newSlotBitmap()
	faces := 0
	for h := range he.Head {
		if he.traceFace(h, seen) {
			faces++
		}
	}
	return faces
}
