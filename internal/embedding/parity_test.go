package embedding_test

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/planarcert/planarcert/internal/embedding"
	"github.com/planarcert/planarcert/internal/gen"
	"github.com/planarcert/planarcert/internal/graph"
	"github.com/planarcert/planarcert/internal/planarity"
)

// errString renders an error for comparison, "" for nil.
func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// checkAuditParity compares the array-based audit with the map-based
// oracle on one rotation: Validate's error, IsPlanar's verdict and
// error, and, for valid rotations, Genus and FaceCount.
func checkAuditParity(t *testing.T, label string, r *embedding.Rotation, g *graph.Graph) {
	t.Helper()
	if got, want := errString(r.Validate(g)), errString(embedding.OracleValidate(r, g)); got != want {
		t.Fatalf("%s: Validate = %q, oracle %q", label, got, want)
	}
	ok, err := r.IsPlanar(g)
	wantOK, wantErr := embedding.OracleIsPlanar(r, g)
	if ok != wantOK || errString(err) != errString(wantErr) {
		t.Fatalf("%s: IsPlanar = (%v, %v), oracle (%v, %v)", label, ok, err, wantOK, wantErr)
	}
	if err != nil {
		return
	}
	if got, want := r.Genus(g), embedding.OracleGenus(r, g); got != want {
		t.Fatalf("%s: Genus = %d, oracle %d", label, got, want)
	}
	if got, want := r.FaceCount(), len(embedding.OracleFaces(r)); got != want {
		t.Fatalf("%s: FaceCount = %d, oracle %d", label, got, want)
	}
}

// shuffled returns a copy of r with every rotation randomly permuted.
func shuffled(r *embedding.Rotation, rng *rand.Rand) *embedding.Rotation {
	c := r.Clone()
	for _, rot := range c.Order {
		rng.Shuffle(len(rot), func(i, j int) { rot[i], rot[j] = rot[j], rot[i] })
	}
	return c
}

// malformed returns copies of r broken in each way Validate reports: a
// rotation of the wrong length, a non-neighbor (in and out of range), a
// duplicate entry, and a missing vertex.
func malformed(r *embedding.Rotation, g *graph.Graph, rng *rand.Rand) map[string]*embedding.Rotation {
	out := map[string]*embedding.Rotation{}
	n := len(r.Order)
	if n == 0 {
		return out
	}
	u := rng.Intn(n)
	c := r.Clone()
	c.Order[u] = append(c.Order[u], rng.Intn(n))
	out["long"] = c
	if len(r.Order[u]) > 0 {
		c = r.Clone()
		c.Order[u] = c.Order[u][1:]
		out["short"] = c
		i := rng.Intn(len(r.Order[u]))
		for _, bad := range []int{-1, n, u} {
			c = r.Clone()
			c.Order[u][i] = bad
			out[fmt.Sprintf("non-neighbor %d", bad)] = c
		}
		for v := 0; v < n; v++ {
			if v != u && !g.HasEdge(u, v) {
				c = r.Clone()
				c.Order[u][i] = v
				out["non-neighbor"] = c
				break
			}
		}
		if len(r.Order[u]) > 1 {
			c = r.Clone()
			c.Order[u][i] = c.Order[u][(i+1)%len(c.Order[u])]
			out["duplicate"] = c
		}
	}
	out["missing vertex"] = &embedding.Rotation{Order: r.Order[:n-1]}
	return out
}

// parityGraphs returns random planar, non-planar and disconnected
// graphs, some with isolated vertices.
func parityGraphs(rng *rand.Rand) map[string]*graph.Graph {
	out := map[string]*graph.Graph{
		"empty":  graph.NewWithNodes(0),
		"single": graph.NewWithNodes(1),
		"k5":     gen.Complete(5),
		"k33":    gen.CompleteBipartite(3, 3),
		"grid":   gen.Grid(5, 7),
		"tree":   gen.RandomTree(40, rng),
	}
	for i := 0; i < 8; i++ {
		out[fmt.Sprintf("stacked-%d", i)] = gen.StackedTriangulation(3+rng.Intn(60), rng)
		n := 2 + rng.Intn(30)
		g, err := gen.GNM(n, rng.Intn(min(n*(n-1)/2, 3*n)+1), rng)
		if err != nil {
			panic(err)
		}
		out[fmt.Sprintf("gnm-%d", i)] = g
		// Disjoint union of a planar graph, a random graph and isolated
		// vertices.
		a := gen.StackedTriangulation(3+rng.Intn(20), rng)
		u := graph.NewWithNodes(a.N() + g.N() + 1 + rng.Intn(3))
		for _, e := range a.Edges() {
			u.MustAddEdge(e.U, e.V)
		}
		for _, e := range g.Edges() {
			u.MustAddEdge(a.N()+e.U, a.N()+e.V)
		}
		out[fmt.Sprintf("union-%d", i)] = u
	}
	return out
}

// TestAuditParity compares the array-based audit with the map-based
// oracle on LR, adjacency-order and shuffled rotations of random graphs,
// and on malformed rotations of each.
func TestAuditParity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for name, g := range parityGraphs(rng) {
		rots := map[string]*embedding.Rotation{"adjacency": embedding.FromAdjacency(g)}
		if ok, rot, err := planarity.Check(g); err == nil && ok {
			rots["lr"] = rot
		}
		for i := 0; i < 3; i++ {
			rots[fmt.Sprintf("shuffled-%d", i)] = shuffled(rots["adjacency"], rng)
		}
		for rname, r := range rots {
			label := name + "/" + rname
			checkAuditParity(t, label, r, g)
			if rname == "lr" {
				if ok, err := r.IsPlanar(g); err != nil || !ok {
					t.Fatalf("%s: LR embedding failed the audit: %v, %v", label, ok, err)
				}
			}
			for bname, bad := range malformed(r, g, rng) {
				checkAuditParity(t, label+"/"+bname, bad, g)
			}
		}
	}
}

// gridRotation returns the planar rotation system of gen.Grid(rows,
// cols): neighbors in the order right, up, left, down.
func gridRotation(rows, cols int) *embedding.Rotation {
	r := embedding.NewRotation(rows * cols)
	for y := 0; y < rows; y++ {
		for x := 0; x < cols; x++ {
			u := y*cols + x
			if x+1 < cols {
				r.Order[u] = append(r.Order[u], u+1)
			}
			if y > 0 {
				r.Order[u] = append(r.Order[u], u-cols)
			}
			if x > 0 {
				r.Order[u] = append(r.Order[u], u-1)
			}
			if y+1 < rows {
				r.Order[u] = append(r.Order[u], u+cols)
			}
		}
	}
	return r
}

// TestIsPlanarAllocsConstant checks that the audit makes the same
// number of allocations at n=256 and at n=16384: a fixed set of flat
// arrays, nothing per vertex or per edge.
func TestIsPlanarAllocsConstant(t *testing.T) {
	const bound = 16
	var counts []float64
	for _, side := range []int{16, 128} {
		g, r := gen.Grid(side, side), gridRotation(side, side)
		if ok, err := r.IsPlanar(g); err != nil || !ok {
			t.Fatalf("grid %dx%d rotation: IsPlanar = %v, %v", side, side, ok, err)
		}
		allocs := testing.AllocsPerRun(5, func() { _, _ = r.IsPlanar(g) })
		if allocs > bound {
			t.Fatalf("grid %dx%d: IsPlanar made %.0f allocations, bound %d", side, side, allocs, bound)
		}
		counts = append(counts, allocs)
	}
	if counts[0] != counts[1] {
		t.Fatalf("IsPlanar allocations grow with n: %.0f at n=256, %.0f at n=16384", counts[0], counts[1])
	}
}

// FuzzAuditParity decodes a small graph and a rotation, shuffled and
// possibly malformed, from the input and compares the audit with the
// oracle on it and, if the graph is planar, on its LR embedding.
func FuzzAuditParity(f *testing.F) {
	f.Add([]byte{4, 6, 0, 1, 1, 2, 2, 3, 3, 0, 0, 2, 1, 3, 0, 0, 0, 9})
	f.Add([]byte{5, 10, 0, 1, 0, 2, 0, 3, 0, 4, 1, 2, 1, 3, 1, 4, 2, 3, 2, 4, 3, 4, 1})
	f.Add([]byte{9, 5, 0, 1, 1, 2, 4, 5, 6, 7, 7, 8, 3, 2, 1})
	f.Add([]byte{3, 2, 0, 1, 1, 2, 0, 0, 2, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := int(data[0])
			data = data[1:]
			return b
		}
		n := next() % 12
		g := graph.NewWithNodes(n)
		for k := next() % 32; k > 0 && n > 1; k-- {
			u, v := next()%n, next()%n
			if u != v && !g.HasEdge(u, v) {
				g.MustAddEdge(u, v)
			}
		}
		r := embedding.FromAdjacency(g)
		for _, rot := range r.Order {
			for i := len(rot) - 1; i > 0; i-- {
				j := next() % (i + 1)
				rot[i], rot[j] = rot[j], rot[i]
			}
		}
		if n > 0 {
			u := next() % n
			switch next() % 8 {
			case 0:
				r.Order[u] = append(r.Order[u], next()%(n+2)-1)
			case 1:
				if len(r.Order[u]) > 0 {
					r.Order[u] = r.Order[u][1:]
				}
			case 2:
				if len(r.Order[u]) > 0 {
					r.Order[u][next()%len(r.Order[u])] = next()%(n+2) - 1
				}
			case 3:
				r.Order = r.Order[:n-1]
			}
		}
		checkAuditParity(t, "fuzz", r, g)
		if ok, rot, err := planarity.Check(g); err == nil && ok {
			checkAuditParity(t, "fuzz/lr", rot, g)
		}
	})
}
