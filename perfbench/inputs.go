package main

import (
	"bytes"
	"fmt"
	"math/rand"

	planarcert "github.com/planarcert/planarcert"
	"github.com/planarcert/planarcert/internal/gen"
	"github.com/planarcert/planarcert/internal/graph"
)

// randomPlanar builds exactly the graph gen.RandomPlanar(n, m, rng)
// builds, from the same random draws, in near-linear time.
// gen.RandomPlanar walks the shuffled edges of a stacked triangulation
// and deletes each one unless a connectivity test says it is a bridge,
// which at n=16384 costs tens of seconds. Deleting in that order keeps
// e_i exactly when no path joins its endpoints through later edges (the
// reverse-delete rule), so one union-find pass from the end decides
// every edge; the graph is then edited in the original order, bridges
// removed and re-added, so adjacency order matches too.
func randomPlanar(n, m int, rng *rand.Rand) (*graph.Graph, error) {
	if n < 3 || m < n-1 || m > 3*n-6 {
		return nil, fmt.Errorf("randomPlanar(n=%d) needs n >= 3 and n-1 <= m <= 3n-6, got m=%d", n, m)
	}
	g := gen.StackedTriangulation(n, rng)
	edges := g.Edges()
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })

	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	bridge := make([]bool, len(edges))
	for i := len(edges) - 1; i >= 0; i-- {
		a, b := find(edges[i].U), find(edges[i].V)
		if a != b {
			parent[a] = b
			bridge[i] = true
		}
	}
	for i, e := range edges {
		if g.M() <= m {
			break
		}
		g.RemoveEdge(e.U, e.V)
		if bridge[i] {
			g.MustAddEdge(e.U, e.V)
		}
	}
	if g.M() > m {
		return nil, fmt.Errorf("randomPlanar could not reach m=%d (stuck at %d)", m, g.M())
	}
	return g, nil
}

// pathNetwork returns the path 0-1-...-(n-1).
func pathNetwork(n int) *planarcert.Network {
	return planarcert.FromGraph(gen.Path(n))
}

// chordSet is a client's record of the chords it has added to a base
// graph, so it can pick one to remove and never adds one twice.
type chordSet struct {
	present map[[2]int]bool
	list    [][2]int
}

func newChordSet() *chordSet { return &chordSet{present: map[[2]int]bool{}} }

// track records an edge update of a chord.
func (c *chordSet) track(u planarcert.Update) {
	ch := [2]int{int(u.A), int(u.B)}
	if u.Op == planarcert.OpAddEdge {
		c.present[ch] = true
		c.list = append(c.list, ch)
		return
	}
	delete(c.present, ch)
	for i, x := range c.list {
		if x == ch {
			c.list[i] = c.list[len(c.list)-1]
			c.list = c.list[:len(c.list)-1]
			return
		}
	}
}

// pick returns a random present chord.
func (c *chordSet) pick(rng *rand.Rand) [2]int { return c.list[rng.Intn(len(c.list))] }

// applyToMirror replays updates on the client-side mirror network.
func applyToMirror(mirror *planarcert.Network, ups []planarcert.Update) error {
	for _, u := range ups {
		switch u.Op {
		case planarcert.OpAddEdge:
			if err := mirror.AddEdge(u.A, u.B); err != nil {
				return fmt.Errorf("mirror: %w", err)
			}
		case planarcert.OpRemoveEdge:
			if !mirror.RemoveEdge(u.A, u.B) {
				return fmt.Errorf("mirror: no edge %d-%d to remove", u.A, u.B)
			}
		}
	}
	return nil
}

// edge returns the update adding (add) or removing the edge {a, b}.
func edge(add bool, a, b int) planarcert.Update {
	if add {
		return planarcert.EdgeAdd(planarcert.NodeID(a), planarcert.NodeID(b))
	}
	return planarcert.EdgeRemove(planarcert.NodeID(a), planarcert.NodeID(b))
}

// ndjson encodes a batch as NDJSON update lines.
func ndjson(ups []planarcert.Update) []byte {
	var b bytes.Buffer
	for _, u := range ups {
		op := "add_edge"
		if u.Op == planarcert.OpRemoveEdge {
			op = "remove_edge"
		}
		fmt.Fprintf(&b, "{\"op\":%q,\"a\":%d,\"b\":%d}\n", op, u.A, u.B)
	}
	return b.Bytes()
}
