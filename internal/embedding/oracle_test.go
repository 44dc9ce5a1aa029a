package embedding

import (
	"fmt"

	"github.com/planarcert/planarcert/internal/graph"
)

// This file holds a map-based implementation of the audit (a set per
// vertex, edge-map lookups, face lists), the oracle the parity tests and
// FuzzAuditParity compare against. It is exported to the external test
// package only.

// OracleValidate is Validate with a set per vertex and edge-map lookups.
func OracleValidate(r *Rotation, g *graph.Graph) error {
	if len(r.Order) != g.N() {
		return fmt.Errorf("embedding: rotation has %d vertices, graph has %d", len(r.Order), g.N())
	}
	for u := 0; u < g.N(); u++ {
		if len(r.Order[u]) != g.Degree(u) {
			return fmt.Errorf("embedding: vertex %d rotation lists %d neighbors, degree is %d",
				u, len(r.Order[u]), g.Degree(u))
		}
		seen := make(map[int]bool, len(r.Order[u]))
		for _, v := range r.Order[u] {
			if !g.HasEdge(u, v) {
				return fmt.Errorf("embedding: rotation at %d lists non-neighbor %d", u, v)
			}
			if seen[v] {
				return fmt.Errorf("embedding: rotation at %d lists %d twice", u, v)
			}
			seen[v] = true
		}
	}
	return nil
}

// half identifies the directed edge (u -> v).
type half struct{ u, v int }

// oracleNext returns, for the directed edge (u,v), the directed edge
// that follows it on the same face: (v, w) with w the successor of u in
// the rotation at v.
func oracleNext(r *Rotation, u, v int) (int, int) {
	rot := r.Order[v]
	for i, x := range rot {
		if x == u {
			return v, rot[(i+1)%len(rot)]
		}
	}
	return v, u // unreachable for validated rotations
}

// OracleFaces traces every face of r, as the cyclic sequence of
// vertices visited (one entry per directed edge on the face boundary).
func OracleFaces(r *Rotation) [][]int {
	visited := make(map[half]bool)
	var faces [][]int
	for u := range r.Order {
		for _, v := range r.Order[u] {
			if visited[half{u, v}] {
				continue
			}
			var face []int
			cu, cv := u, v
			for !visited[half{cu, cv}] {
				visited[half{cu, cv}] = true
				face = append(face, cu)
				cu, cv = oracleNext(r, cu, cv)
			}
			faces = append(faces, face)
		}
	}
	return faces
}

// OracleGenus is Genus over g's components, OracleFaces and g.Edges().
func OracleGenus(r *Rotation, g *graph.Graph) int {
	comps := g.Components()
	compOf := make([]int, g.N())
	for ci, comp := range comps {
		for _, v := range comp {
			compOf[v] = ci
		}
	}
	facesPer := make([]int, len(comps))
	for _, face := range OracleFaces(r) {
		facesPer[compOf[face[0]]]++
	}
	edgesPer := make([]int, len(comps))
	for _, e := range g.Edges() {
		edgesPer[compOf[e.U]]++
	}
	total := 0
	for ci, comp := range comps {
		f := facesPer[ci]
		if edgesPer[ci] == 0 {
			f = 1 // an isolated vertex has exactly one face
		}
		total += (2 - len(comp) + edgesPer[ci] - f) / 2
	}
	return total
}

// OracleIsPlanar is IsPlanar over OracleValidate and OracleGenus.
func OracleIsPlanar(r *Rotation, g *graph.Graph) (bool, error) {
	if err := OracleValidate(r, g); err != nil {
		return false, err
	}
	if g.N() == 0 {
		return true, nil
	}
	return OracleGenus(r, g) == 0, nil
}
