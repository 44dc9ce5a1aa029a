package embedding

import (
	"testing"

	"github.com/planarcert/planarcert/internal/graph"
)

// k4Planar builds K4 with a planar rotation system (outer triangle 0-1-2,
// vertex 3 in the middle).
func k4Planar(t *testing.T) (*graph.Graph, *Rotation) {
	t.Helper()
	g := graph.NewWithNodes(4)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			g.MustAddEdge(i, j)
		}
	}
	r := NewRotation(4)
	r.Order[0] = []int{1, 3, 2}
	r.Order[1] = []int{2, 3, 0}
	r.Order[2] = []int{0, 3, 1}
	r.Order[3] = []int{0, 1, 2}
	return g, r
}

func TestFacesTriangle(t *testing.T) {
	g := graph.NewWithNodes(3)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(0, 2)
	r := FromAdjacency(g)
	if f := r.FaceCount(); f != 2 {
		t.Fatalf("triangle FaceCount = %d, want 2", f)
	}
	faces := OracleFaces(r)
	if len(faces) != 2 {
		t.Fatalf("triangle faces = %d, want 2", len(faces))
	}
	for _, f := range faces {
		if len(f) != 3 {
			t.Fatalf("triangle face length = %d, want 3", len(f))
		}
	}
}

func TestK4PlanarRotation(t *testing.T) {
	g, r := k4Planar(t)
	ok, err := r.IsPlanar(g)
	if err != nil {
		t.Fatalf("IsPlanar: %v", err)
	}
	if !ok {
		t.Fatal("planar K4 rotation reported non-planar")
	}
	if f := r.FaceCount(); f != 4 {
		t.Fatalf("K4 planar embedding faces = %d, want 4", f)
	}
}

func TestK4NonPlanarRotation(t *testing.T) {
	g, r := k4Planar(t)
	// Swapping two entries at one vertex changes the face structure; for K4
	// this yields a genus-1 rotation.
	r.Order[3][0], r.Order[3][1] = r.Order[3][1], r.Order[3][0]
	ok, err := r.IsPlanar(g)
	if err != nil {
		t.Fatalf("IsPlanar: %v", err)
	}
	if ok {
		t.Fatal("twisted K4 rotation reported planar")
	}
	if genus := r.Genus(g); genus != 1 {
		t.Fatalf("twisted K4 genus = %d, want 1", genus)
	}
}

func TestK5RotationNeverPlanar(t *testing.T) {
	g := graph.NewWithNodes(5)
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			g.MustAddEdge(i, j)
		}
	}
	r := FromAdjacency(g)
	ok, err := r.IsPlanar(g)
	if err != nil {
		t.Fatalf("IsPlanar: %v", err)
	}
	if ok {
		t.Fatal("a K5 rotation reported planar (impossible for any rotation)")
	}
}

func TestValidateCatchesMismatches(t *testing.T) {
	g := graph.NewWithNodes(3)
	g.MustAddEdge(0, 1)

	r := NewRotation(2)
	if err := r.Validate(g); err == nil {
		t.Fatal("Validate accepted wrong vertex count")
	}

	r = NewRotation(3)
	r.Order[0] = []int{1, 1}
	r.Order[1] = []int{0}
	if err := r.Validate(g); err == nil {
		t.Fatal("Validate accepted duplicate rotation entry")
	}

	r = NewRotation(3)
	r.Order[0] = []int{2}
	r.Order[1] = []int{0}
	if err := r.Validate(g); err == nil {
		t.Fatal("Validate accepted non-neighbor in rotation")
	}

	r = NewRotation(3)
	r.Order[0] = []int{1}
	r.Order[1] = []int{0}
	if err := r.Validate(g); err != nil {
		t.Fatalf("Validate rejected a correct rotation: %v", err)
	}
}

func TestTreeHasOneFace(t *testing.T) {
	g := graph.NewWithNodes(5)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(0, 2)
	g.MustAddEdge(2, 3)
	g.MustAddEdge(2, 4)
	r := FromAdjacency(g)
	if f := r.FaceCount(); f != 1 {
		t.Fatalf("tree faces = %d, want 1", f)
	}
	ok, err := r.IsPlanar(g)
	if err != nil || !ok {
		t.Fatalf("tree rotation not planar: ok=%v err=%v", ok, err)
	}
}

func TestDisconnectedGenus(t *testing.T) {
	// Two disjoint triangles: n=6, m=6, f per component 2 but face tracing
	// counts both; c=2 so genus = (4 - 6 + 6 - 4)/2 = 0.
	g := graph.NewWithNodes(6)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(0, 2)
	g.MustAddEdge(3, 4)
	g.MustAddEdge(4, 5)
	g.MustAddEdge(3, 5)
	r := FromAdjacency(g)
	ok, err := r.IsPlanar(g)
	if err != nil {
		t.Fatalf("IsPlanar: %v", err)
	}
	if !ok {
		t.Fatal("two disjoint triangles reported non-planar")
	}
}

func TestCloneIndependent(t *testing.T) {
	_, r := k4Planar(t)
	c := r.Clone()
	c.Order[0][0] = 99
	if r.Order[0][0] == 99 {
		t.Fatal("Clone shares backing arrays")
	}
}
