package main

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/planarcert/planarcert/internal/gen"
)

// TestRandomPlanarMatchesGen checks that the fast generator builds the
// same graph as gen.RandomPlanar, adjacency order included, and leaves
// the random source in the same state.
func TestRandomPlanarMatchesGen(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		r1, r2 := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		want, err := gen.RandomPlanar(600, 900, r1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := randomPlanar(600, 900, r2)
		if err != nil {
			t.Fatal(err)
		}
		if got.M() != want.M() {
			t.Fatalf("seed %d: %d edges, want %d", seed, got.M(), want.M())
		}
		for u := 0; u < want.N(); u++ {
			if !slices.Equal(got.Neighbors(u), want.Neighbors(u)) {
				t.Fatalf("seed %d: adjacency of %d differs", seed, u)
			}
		}
		if r1.Int63() != r2.Int63() {
			t.Fatalf("seed %d: random sources diverged", seed)
		}
	}
}
