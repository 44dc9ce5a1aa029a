package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"github.com/planarcert/planarcert/internal/graph"
)

// Interval is the certificate interval I(x) = [A, B] of Section 3.1: the
// shortest edge {A, B} of the path-outerplanar graph strictly covering x.
// The sentinel value [0, N+1] (paper: [0, n+1]) means no real edge covers
// x; it behaves like the virtual edge {0, N+1}.
type Interval struct {
	A, B int
}

// Sentinel returns the no-covering-edge interval for a graph on n ranks.
func Sentinel(n int) Interval { return Interval{A: 0, B: n + 1} }

// IsSentinel reports whether i is the sentinel for n ranks.
func (i Interval) IsSentinel(n int) bool { return i.A == 0 && i.B == n+1 }

// Contains reports whether rank x lies strictly inside the interval.
func (i Interval) Contains(x int) bool { return i.A < x && x < i.B }

// StrictlyInside reports i ⊊ o.
func (i Interval) StrictlyInside(o Interval) bool {
	return o.A <= i.A && i.B <= o.B && (o.A < i.A || i.B < o.B)
}

// String renders the interval as "[A,B]".
func (i Interval) String() string { return fmt.Sprintf("[%d,%d]", i.A, i.B) }

// ErrCrossing reports that two edges cross, i.e. the vertex ordering is
// not a path-outerplanarity witness (Definition 1).
var ErrCrossing = errors.New("core: crossing edges, ordering is not a path-outerplanar witness")

// ComputeIntervals computes I(x) for every rank x in 1..n of a
// path-outerplanar graph given by its edges over ranks (path edges
// {i, i+1} need not be included; they never cover anything strictly).
// It runs a left-to-right sweep with a stack of open edges; if two edges
// cross, it returns ErrCrossing — so it doubles as the witness validity
// check. Complexity O(n + m): two counting passes order the edges by
// start rank and then decreasing end rank, and a per-rank count of the
// open edges ending there replaces scanning the stack at every rank.
func ComputeIntervals(n int, edges []graph.Edge) ([]Interval, error) {
	for _, e := range edges {
		if e.U < 1 || e.V > n || e.U >= e.V {
			return nil, fmt.Errorf("core: edge %v outside rank range [1,%d]", e, n)
		}
	}
	// starts[first[a] .. first[a+1]-1] lists the edges {a,b}, sorted by
	// decreasing b so that the innermost ends up on top of the stack.
	byEnd, _ := bucketByKey(edges, nil, n, func(e graph.Edge) int { return n - e.V })
	starts, first := bucketByKey(edges, byEnd, n, func(e graph.Edge) int { return e.U })
	intervals := make([]Interval, n+1)
	stack := make([]int, 0, len(edges))
	// open[b] counts the stacked edges that end at b.
	open := make([]int, n+1)
	for x := 1; x <= n; x++ {
		// Close edges ending at x. Non-crossing families keep all of them
		// on top of the stack.
		for len(stack) > 0 && edges[stack[len(stack)-1]].V == x {
			stack = stack[:len(stack)-1]
			open[x]--
		}
		// An edge ending at x still open is buried under one that crosses
		// it (an edge ending before x would have failed at its own end).
		if open[x] > 0 {
			for _, ei := range stack {
				if edges[ei].V <= x {
					return nil, fmt.Errorf("%w: edge %v still open at %d", ErrCrossing, edges[ei], x)
				}
			}
		}
		// The innermost open edge strictly covers x (it was opened at some
		// a < x and closes at some b > x).
		if len(stack) > 0 {
			top := edges[stack[len(stack)-1]]
			intervals[x] = Interval{A: top.U, B: top.V}
		} else {
			intervals[x] = Sentinel(n)
		}
		// Open edges starting at x (outermost first).
		for _, ei := range starts[first[x]:first[x+1]] {
			// Nesting discipline: a new edge must close no later than the
			// current innermost open edge.
			if len(stack) > 0 && edges[ei].V > edges[stack[len(stack)-1]].V {
				return nil, fmt.Errorf("%w: %v crosses %v", ErrCrossing, edges[ei], edges[stack[len(stack)-1]])
			}
			stack = append(stack, ei)
			open[edges[ei].V]++
		}
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("%w: %d edges still open after sweep", ErrCrossing, len(stack))
	}
	return intervals, nil
}

// bucketByKey stably sorts edge indices by key, which must lie in
// [0, n]: the indices in order, or 0..len(edges)-1 if order is nil. The
// run of key k is out[start[k] : start[k+1]].
func bucketByKey(edges []graph.Edge, order []int, n int, key func(graph.Edge) int) (out, start []int) {
	start = make([]int, n+2)
	for _, e := range edges {
		start[key(e)+1]++
	}
	for k := 1; k < len(start); k++ {
		start[k] += start[k-1]
	}
	out = make([]int, len(edges))
	next := slices.Clone(start)
	for j := range edges {
		i := j
		if order != nil {
			i = order[j]
		}
		k := key(edges[i])
		out[next[k]] = i
		next[k]++
	}
	return out, start
}

// CheckWitnessPairwise is the direct O(m^2) implementation of
// Definition 1: for every pair of edges {a,b}, {c,d} with a<b, c<d one of
// a<b<=c<d, c<d<=a<b, a<=c<d<=b, c<=a<b<=d must hold. It exists to
// cross-validate ComputeIntervals in tests.
func CheckWitnessPairwise(edges []graph.Edge) error {
	for i := 0; i < len(edges); i++ {
		for j := i + 1; j < len(edges); j++ {
			a, b := edges[i].U, edges[i].V
			c, d := edges[j].U, edges[j].V
			ok := (a < b && b <= c && c < d) ||
				(c < d && d <= a && a < b) ||
				(a <= c && c < d && d <= b) ||
				(c <= a && a < b && b <= d)
			if !ok {
				return fmt.Errorf("%w: %v and %v", ErrCrossing, edges[i], edges[j])
			}
		}
	}
	return nil
}

// PONeighbor is one neighbor in the local view of a path-outerplanar
// vertex: its rank and claimed interval.
type PONeighbor struct {
	Rank int
	I    Interval
}

// PONodeView is the information available to one vertex of the
// path-outerplanar graph when simulating Algorithm 1: the total number of
// ranks N, its own rank and interval, and the rank+interval of every
// neighbor. Virtual vertices 0 and N+1 must NOT be included; the verifier
// adds them itself.
type PONodeView struct {
	N         int
	Rank      int
	I         Interval
	Neighbors []PONeighbor
}

// VerifyPONode runs Algorithm 1 of the paper at one vertex, including the
// boundary simulation of the virtual vertices 0 and N+1 performed by the
// vertices of rank 1 and N. A nil return means the node accepts.
func VerifyPONode(v PONodeView) error {
	var ns poNodeScratch
	return verifyPONode(v, &ns)
}

// verifyPONode is VerifyPONode decoding into reusable scratch: the
// planarity verifier calls it once per copy (2n-1 times across a
// sweep), so its split/sort buffers and duplicate-rank set live in ns
// instead of being allocated per call.
func verifyPONode(v PONodeView, ns *poNodeScratch) error {
	n := v.N
	x := v.Rank
	if x < 1 || x > n {
		return fmt.Errorf("core: rank %d outside [1,%d]", x, n)
	}
	sent := Sentinel(n)

	// Split neighbors into left (descending) and right (ascending), with
	// the virtual neighbors of the boundary vertices appended.
	left, right := ns.left[:0], ns.right[:0]
	seen := &ns.seen
	seen.reset()
	for _, nb := range v.Neighbors {
		if nb.Rank < 1 || nb.Rank > n || nb.Rank == x {
			return fmt.Errorf("core: neighbor rank %d invalid next to %d", nb.Rank, x)
		}
		if _, dup := seen.get(nb.Rank); dup {
			return fmt.Errorf("core: duplicate neighbor rank %d", nb.Rank)
		}
		seen.put(nb.Rank, struct{}{})
		if nb.Rank < x {
			left = append(left, nb)
		} else {
			right = append(right, nb)
		}
	}
	virtualLow := PONeighbor{Rank: 0, I: Interval{A: -1, B: n + 2}}
	virtualHigh := PONeighbor{Rank: n + 1, I: Interval{A: -1, B: n + 2}}
	if x == 1 {
		left = append(left, virtualLow)
	}
	if x == n {
		right = append(right, virtualHigh)
	}
	// Keep any growth for the next call.
	ns.left, ns.right = left, right
	slices.SortFunc(left, func(a, b PONeighbor) int { return cmp.Compare(b.Rank, a.Rank) })  // x-_0 > x-_1 > ...
	slices.SortFunc(right, func(a, b PONeighbor) int { return cmp.Compare(a.Rank, b.Rank) }) // x+_0 < x+_1 < ...

	// Spanning-path adjacency (part of the paper's line 3): x must be
	// adjacent to ranks x-1 and x+1 (virtual at the boundary).
	if len(left) == 0 || left[0].Rank != x-1 {
		return fmt.Errorf("core: rank %d is not adjacent to rank %d", x, x-1)
	}
	if len(right) == 0 || right[0].Rank != x+1 {
		return fmt.Errorf("core: rank %d is not adjacent to rank %d", x, x+1)
	}

	// Boundary simulation of virtual vertices (paper: node 1 simulates
	// node 0, node n simulates node n+1): node 0's only non-trivial check
	// is I(1) = [0, n+1], symmetrically for node n+1.
	if x == 1 && v.I != sent {
		return fmt.Errorf("core: I(1) = %v, want sentinel %v", v.I, sent)
	}
	if x == n && v.I != sent {
		return fmt.Errorf("core: I(%d) = %v, want sentinel %v", n, v.I, sent)
	}

	// Line 5: a < x < b and all neighbors inside [a, b].
	a, b := v.I.A, v.I.B
	if !(0 <= a && a < x && x < b && b <= n+1) {
		return fmt.Errorf("core: I(%d) = %v does not cover %d", x, v.I, x)
	}
	for _, nb := range v.Neighbors {
		if nb.Rank < a || nb.Rank > b {
			return fmt.Errorf("core: neighbor %d of %d outside I(%d) = %v", nb.Rank, x, x, v.I)
		}
	}

	// Lines 6-7: consecutive right neighbors delimit each other's faces.
	k := len(right) - 1
	for i := 0; i < k; i++ {
		want := Interval{A: x, B: right[i+1].Rank}
		if right[i].I != want {
			return fmt.Errorf("core: I(%d) = %v, want %v (right chain of %d)",
				right[i].Rank, right[i].I, want, x)
		}
	}
	// Lines 8-9: symmetric left chain.
	l := len(left) - 1
	for i := 0; i < l; i++ {
		want := Interval{A: left[i+1].Rank, B: x}
		if left[i].I != want {
			return fmt.Errorf("core: I(%d) = %v, want %v (left chain of %d)",
				left[i].Rank, left[i].I, want, x)
		}
	}
	// Lines 10-11: the extreme right neighbor below b shares x's face.
	if xk := right[k]; xk.Rank < b {
		if xk.I != v.I {
			return fmt.Errorf("core: I(%d) = %v, want I(%d) = %v (outer right)",
				xk.Rank, xk.I, x, v.I)
		}
	}
	// Lines 12-13: symmetric on the left.
	if xl := left[l]; xl.Rank > a {
		if xl.I != v.I {
			return fmt.Errorf("core: I(%d) = %v, want I(%d) = %v (outer left)",
				xl.Rank, xl.I, x, v.I)
		}
	}
	// Lines 14-17: neighbors whose interval is anchored at x.
	for _, nb := range v.Neighbors {
		other := -1
		switch {
		case nb.I.A == x:
			other = nb.I.B
		case nb.I.B == x:
			other = nb.I.A
		default:
			continue
		}
		_, isNbr := seen.get(other)
		adjacent := isNbr ||
			(x == 1 && other == 0) || (x == n && other == n+1) ||
			other == x-1 || other == x+1
		// Note: ranks x-1 and x+1 are always neighbors (checked above), and
		// the boundary vertices own the virtual edges {0,1}, {n,n+1}.
		if other < 0 || other > n+1 || !adjacent {
			return fmt.Errorf("core: I(%d) = %v anchored at %d but %d is not adjacent to %d",
				nb.Rank, nb.I, x, other, x)
		}
		if !nb.I.StrictlyInside(v.I) {
			return fmt.Errorf("core: I(%d) = %v not strictly inside I(%d) = %v",
				nb.Rank, nb.I, x, v.I)
		}
	}
	return nil
}
