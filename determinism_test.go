package planarcert_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"slices"
	"testing"

	planarcert "github.com/planarcert/planarcert"
	"github.com/planarcert/planarcert/internal/gen"
	"github.com/planarcert/planarcert/internal/graph"
)

// certHash hashes an assignment: each node's id, bit length and bytes,
// in ascending node-ID order.
func certHash(certs planarcert.Certificates) string {
	ids := make([]planarcert.NodeID, 0, len(certs))
	for id := range certs {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	h := sha256.New()
	var hdr [16]byte
	for _, id := range ids {
		c := certs[id]
		binary.BigEndian.PutUint64(hdr[:8], uint64(id))
		binary.BigEndian.PutUint64(hdr[8:], uint64(c.Bits))
		h.Write(hdr[:])
		h.Write(c.Data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// k5MinusEdge is K5 without the edge {3,4}: planar, and small enough
// that its LR embedding depends visibly on adjacency order.
func k5MinusEdge() *planarcert.Network {
	g := gen.Complete(5)
	g.RemoveEdge(3, 4)
	return planarcert.FromGraph(g)
}

// TestSessionCertificatesMatchCertify checks that a session's initial
// certificates are the ones Certify produces for the same network, every
// time. NewSession works on a copy of the network's graph, so this
// holds only if copies keep adjacency order.
func TestSessionCertificatesMatchCertify(t *testing.T) {
	net := k5MinusEdge()
	want, err := planarcert.Certify(net, planarcert.SchemePlanarity)
	if err != nil {
		t.Fatal(err)
	}
	wantHash := certHash(want)
	for i := 0; i < 30; i++ {
		s, err := planarcert.NewSession(net, planarcert.SchemePlanarity, planarcert.EngineConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if got := certHash(s.Certificates()); got != wantHash {
			t.Fatalf("session %d: certificate hash %s, Certify gave %s", i, got, wantHash)
		}
	}
}

// TestOuterplanarCertifyDeterministic checks that repeated outerplanarity
// certification of one network gives one assignment. The prover embeds a
// copy of the graph plus an apex vertex.
func TestOuterplanarCertifyDeterministic(t *testing.T) {
	net := planarcert.FromGraph(gen.Cycle(12))
	for _, e := range [][2]planarcert.NodeID{{0, 5}, {1, 4}, {5, 11}, {6, 9}} {
		if err := net.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	var first string
	for i := 0; i < 10; i++ {
		certs, err := planarcert.Certify(net, planarcert.SchemeOuterplanarity)
		if err != nil {
			t.Fatal(err)
		}
		h := certHash(certs)
		if i == 0 {
			first = h
		} else if h != first {
			t.Fatalf("call %d: certificate hash %s, first call gave %s", i, h, first)
		}
	}
}

// pinnedInput builds one fixed-seed network for the certificate pins.
type pinnedInput struct {
	name  string
	build func() (*graph.Graph, error)
}

func pinnedInputs() []pinnedInput {
	rng := func(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
	ok := func(g *graph.Graph) (*graph.Graph, error) { return g, nil }
	return []pinnedInput{
		{"stacked-tri-4096", func() (*graph.Graph, error) { return ok(gen.StackedTriangulation(4096, rng(1))) }},
		{"random-planar-1024", func() (*graph.Graph, error) { return gen.RandomPlanar(1024, 1800, rng(2)) }},
		{"grid-20x25", func() (*graph.Graph, error) { return ok(gen.Grid(20, 25)) }},
		{"grid-16x16-scrambled", func() (*graph.Graph, error) { return ok(gen.ScrambleIDs(gen.Grid(16, 16), rng(3))) }},
		{"outerplanar-300", func() (*graph.Graph, error) { return ok(gen.RandomOuterplanar(300, 0.5, rng(4))) }},
		{"planted-k5-200", func() (*graph.Graph, error) { return gen.PlantSubdivision(200, true, rng(5)) }},
		{"planted-k33-200", func() (*graph.Graph, error) { return gen.PlantSubdivision(200, false, rng(6)) }},
		{"path-50", func() (*graph.Graph, error) { return ok(gen.Path(50)) }},
		{"path-64-scrambled", func() (*graph.Graph, error) { return ok(gen.ScrambleIDs(gen.Path(64), rng(7))) }},
		{"tree-300", func() (*graph.Graph, error) { return ok(gen.RandomTree(300, rng(8))) }},
	}
}

// certPins is the SHA-256 (see certHash) of Certify's output for every
// (input, scheme) pair the scheme accepts. Every other pair must fail.
var certPins = []struct {
	input  string
	scheme planarcert.SchemeName
	hash   string
}{
	{"stacked-tri-4096", planarcert.SchemePlanarity, "92180962eef998eb9508ead0afa331b72385d09cf1924d4832d7aa462ab97344"},
	{"stacked-tri-4096", planarcert.SchemeSpanningTree, "89711c57dfc00d7e1b9dbd9f0305aba36d72353be22889a6e6f8444583a730b5"},
	{"random-planar-1024", planarcert.SchemePlanarity, "7a7bf37d25bd35041fb29bf685d4ac3cadb540dccc411410ac6b182c01aaddc5"},
	{"random-planar-1024", planarcert.SchemeSpanningTree, "bebbcbf2e48a22c32c7af7d47ebaa1316a6a22a788ef1466f4f2e4ab553708ce"},
	{"grid-20x25", planarcert.SchemePlanarity, "6f05fd7fb21e9d7512c59bad9502c2a21028473874241bcdd0d5477ba2ba5f3d"},
	{"grid-20x25", planarcert.SchemeSpanningTree, "0884d5581b82c468db06224a2004f01e61575ff2767c40f302ece0a053ac9dd5"},
	{"grid-16x16-scrambled", planarcert.SchemePlanarity, "6011ba85054d20323221552bc10438ca60599e7e6bc47fd1891b643bd4341b37"},
	{"grid-16x16-scrambled", planarcert.SchemeSpanningTree, "adfec1c441c2f22245b0df45ced1e9cae0e6f98db42bc71ffd029ffd90520a30"},
	{"outerplanar-300", planarcert.SchemePlanarity, "0969de872c1572890084eaa5b1936483d9cac7f852ba501ae24f0e6f55773325"},
	{"outerplanar-300", planarcert.SchemeOuterplanarity, "33e52e5fe13c3df33adbc50de919e8b8106d7d854a257d072f945e8d30473648"},
	{"outerplanar-300", planarcert.SchemePathOuterplanar, "adf8a44d3dc6a97507564883936a6aeabb8aaa5270d201c37d2e7141ee1eb317"},
	{"outerplanar-300", planarcert.SchemeSpanningTree, "2453bd35a66f2cad19d49c1e91acb5a2a83cd53057fa0d2ed5fa4adc86494c10"},
	{"planted-k5-200", planarcert.SchemeNonPlanarity, "565bc58fb742340cb12a1e2b4b603b17bfc61d92b5f98b23b1806885638924f2"},
	{"planted-k5-200", planarcert.SchemeSpanningTree, "21762a213bad0cefbfb75e87d5580337441eaa08a15ffa106abc7939b882059c"},
	{"planted-k33-200", planarcert.SchemeNonPlanarity, "b06bc11f5173512df0405845dbf1167bad25cea784a5eb501540ec3a5c5acf87"},
	{"planted-k33-200", planarcert.SchemeSpanningTree, "ed8882c801f5ad05c11aac3c2788b985978aa31b87cd0b7dcece7b3cd48b849d"},
	{"path-50", planarcert.SchemePlanarity, "e1811976ee5373b509f303e768d83883c2c253145fd6ac857493bdebf26bdaaa"},
	{"path-50", planarcert.SchemeOuterplanarity, "e1811976ee5373b509f303e768d83883c2c253145fd6ac857493bdebf26bdaaa"},
	{"path-50", planarcert.SchemePathOuterplanar, "61a94148c60712e1c28edc366f73065609488d9b7655baad4763be3c8e68c3b6"},
	{"path-50", planarcert.SchemeSpanningTree, "11e4dc5d6f849f3e06c6bba717d3296647541875b3b2fb0e87dcd5cc2bd180e5"},
	{"path-50", planarcert.SchemePath, "e6055ded66afe3333f6464e092d946eeb5c43269bd30469b3e122e8885dddc7b"},
	{"path-64-scrambled", planarcert.SchemePlanarity, "b4c0b0b082db0ecd411545f6435200f1decf9a6ec867a752c131d2116def45c7"},
	{"path-64-scrambled", planarcert.SchemeOuterplanarity, "b4c0b0b082db0ecd411545f6435200f1decf9a6ec867a752c131d2116def45c7"},
	{"path-64-scrambled", planarcert.SchemePathOuterplanar, "7e2c0747875011352d2d8402634f46ddad33ed31421fde4ff627df02fcfb25b6"},
	{"path-64-scrambled", planarcert.SchemeSpanningTree, "cdbf35a94a12875c00d734133844ec0697919d4801f1471782b31d71c3f459d1"},
	{"path-64-scrambled", planarcert.SchemePath, "b33c153f5456fb0d8bb48ecef32c22e7f9fe3548ca4ea5164730495e15c6bcb8"},
	{"tree-300", planarcert.SchemePlanarity, "dc2f5281ca27952b0f565e370b2bdf975a7423951a778464898fb35319f6f407"},
	{"tree-300", planarcert.SchemeOuterplanarity, "5b810bf2295e193cc3e983c8934d26a9cbbb4fc80fe7bf44886928869f8e000e"},
	{"tree-300", planarcert.SchemeSpanningTree, "bdd3cb3cb91fb67a0c89a64f4e7ad97b046fa9fec463df954868c0795d728354"},
}

// TestCertificateHashesPinned pins the exact certificate bytes Certify
// produces for every scheme on fixed-seed inputs. A refactor of any
// prover must leave every hash unchanged; a failure here means the
// certificates changed, so fix the code, not the pin.
func TestCertificateHashesPinned(t *testing.T) {
	want := map[string]string{}
	for _, p := range certPins {
		want[p.input+"/"+string(p.scheme)] = p.hash
	}
	for _, in := range pinnedInputs() {
		g, err := in.build()
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		net := planarcert.FromGraph(g)
		for _, sch := range planarcert.Schemes() {
			key := in.name + "/" + string(sch)
			certs, err := planarcert.Certify(net, sch)
			pin, pinned := want[key]
			switch {
			case err != nil && pinned:
				t.Errorf("%s: Certify failed: %v", key, err)
			case err == nil && !pinned:
				t.Errorf("%s: Certify accepted an input the pins say it rejects", key)
			case err == nil && certHash(certs) != pin:
				t.Errorf("%s: certificate hash %s, pinned %s", key, certHash(certs), pin)
			}
		}
	}
}
