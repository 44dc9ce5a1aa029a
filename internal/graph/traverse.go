package graph

// BFSFrom runs a breadth-first search from root and returns the parent
// index of every reached node (parent[root] = root, unreached = -1) and
// the hop distance (unreached = -1).
func (g *Graph) BFSFrom(root int) (parent, dist []int) {
	n := g.N()
	parent = make([]int, n)
	dist = make([]int, n)
	for i := range parent {
		parent[i] = -1
		dist[i] = -1
	}
	parent[root] = root
	dist[root] = 0
	queue := make([]int, 0, n)
	queue = append(queue, root)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.adj[u] {
			if parent[v] == -1 {
				parent[v] = u
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return parent, dist
}

// Connected reports whether g is connected (the empty graph counts as
// connected).
func (g *Graph) Connected() bool {
	if g.N() == 0 {
		return true
	}
	parent, _ := g.BFSFrom(0)
	for _, p := range parent {
		if p == -1 {
			return false
		}
	}
	return true
}

// Components returns the connected components of g as slices of indices.
func (g *Graph) Components() [][]int {
	n := g.N()
	seen := make([]bool, n)
	var comps [][]int
	for s := 0; s < n; s++ {
		if seen[s] {
			continue
		}
		var comp []int
		stack := []int{s}
		seen[s] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, u)
			for _, v := range g.adj[u] {
				if !seen[v] {
					seen[v] = true
					stack = append(stack, v)
				}
			}
		}
		comps = append(comps, comp)
	}
	return comps
}

// SpanningTree returns a BFS spanning tree of connected g rooted at root,
// as a parent slice (parent[root] = root). Returns false if disconnected.
func (g *Graph) SpanningTree(root int) ([]int, bool) {
	parent, _ := g.BFSFrom(root)
	for _, p := range parent {
		if p == -1 {
			return nil, false
		}
	}
	return parent, true
}

// IsTreeEdge reports whether {u,v} is a tree edge of the parent slice.
func IsTreeEdge(parent []int, u, v int) bool {
	return parent[u] == v || parent[v] == u
}

// DegeneracyOrder computes a degeneracy ordering by repeatedly peeling a
// minimum-degree node. It returns the ordering (a permutation of indices)
// and the degeneracy (the maximum degree seen at peel time). For planar
// graphs the degeneracy is at most 5, which is the property Theorem 1 uses
// to spread edge certificates.
func (g *Graph) DegeneracyOrder() (order []int, degeneracy int) {
	n := g.N()
	deg := make([]int, n)
	removed := make([]bool, n)
	maxDeg := 0
	for i := 0; i < n; i++ {
		deg[i] = len(g.adj[i])
		if deg[i] > maxDeg {
			maxDeg = deg[i]
		}
	}
	// Bucket queue over degrees for O(n + m) peeling.
	buckets := make([][]int, maxDeg+1)
	for i := 0; i < n; i++ {
		buckets[deg[i]] = append(buckets[deg[i]], i)
	}
	order = make([]int, 0, n)
	cur := 0
	for len(order) < n {
		if cur > maxDeg {
			break
		}
		if len(buckets[cur]) == 0 {
			cur++
			continue
		}
		u := buckets[cur][len(buckets[cur])-1]
		buckets[cur] = buckets[cur][:len(buckets[cur])-1]
		if removed[u] || deg[u] != cur {
			continue // stale bucket entry
		}
		removed[u] = true
		order = append(order, u)
		if cur > degeneracy {
			degeneracy = cur
		}
		for _, v := range g.adj[u] {
			if !removed[v] {
				deg[v]--
				buckets[deg[v]] = append(buckets[deg[v]], v)
				if deg[v] < cur {
					cur = deg[v]
				}
			}
		}
	}
	return order, degeneracy
}
