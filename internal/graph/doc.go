// Package graph provides the undirected simple-graph representation
// used throughout the planarcert library.
//
// Graphs distinguish between node *indices* (dense, 0..n-1, used
// internally for array addressing) and node *identifiers* (arbitrary
// distinct values from a range polynomial in n, as in the model of
// Feuilloley et al., PODC 2020). Distributed verifiers only ever see
// identifiers; algorithms that run on the prover side may use indices.
//
// The representation is adjacency lists over indices with an
// identifier<->index bimap on the side. Each edge is stored once, as an
// entry in both endpoints' lists, plus an edge count; there is no edge
// set, and HasEdge scans the shorter of the two lists. Mutations
// (AddNode, AddEdge, RemoveEdge) keep both directions of the bimap and
// both lists of an edge consistent, which is what lets internal/dynamic
// mutate a live graph while its certificate state is repaired
// incrementally; Clone deep-copies, keeping every list in order, so
// snapshots taken by sessions and the public Network wrapper never
// alias caller-visible state. Traversals (BFS, connected components,
// spanning trees, the degeneracy order behind the paper's 5-degeneracy
// certificate placement) live in traverse.go and operate on indices.
package graph
