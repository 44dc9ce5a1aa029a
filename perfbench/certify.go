package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	planarcert "github.com/planarcert/planarcert"
	"github.com/planarcert/planarcert/internal/bits"
	"github.com/planarcert/planarcert/internal/core"
	"github.com/planarcert/planarcert/internal/dist"
	"github.com/planarcert/planarcert/internal/embedding"
	"github.com/planarcert/planarcert/internal/gen"
	"github.com/planarcert/planarcert/internal/graph"
	"github.com/planarcert/planarcert/internal/planarity"
	"github.com/planarcert/planarcert/internal/pls"
)

// certifyInput is one fixed-seed input of the certify workload.
type certifyInput struct {
	name   string
	net    *planarcert.Network
	scheme planarcert.SchemeName
}

func (in certifyInput) planar() bool { return in.scheme == planarcert.SchemePlanarity }

// certifyInputs generates the certify workload's three graphs: a dense
// stacked triangulation, a sparse random planar graph and a planted
// K3,3 subdivision.
func certifyInputs(seed int64) ([]certifyInput, error) {
	rng := rand.New(rand.NewSource(seed))
	dense := gen.StackedTriangulation(16384, rng)
	sparse, err := randomPlanar(16384, 24000, rng)
	if err != nil {
		return nil, err
	}
	k33, err := gen.PlantSubdivision(512, false, rng)
	if err != nil {
		return nil, err
	}
	return []certifyInput{
		{"stacked", planarcert.FromGraph(dense), planarcert.SchemePlanarity},
		{"random-planar", planarcert.FromGraph(sparse), planarcert.SchemePlanarity},
		{"planted-k33", planarcert.FromGraph(k33), planarcert.SchemeNonPlanarity},
	}, nil
}

// proveSlack bounds prove.unattributed_frac: the five prover layers
// must account for Certify's time to within this share.
const proveSlack = 0.15

// certifyBits are the certificate sizes of the honest assignments.
type certifyBits struct {
	max, npMax int
	sum        float64 // certificate bits summed over the planar inputs' nodes
	nodes      int     // nodes of the planar inputs
}

// runCertify is the one-shot workload: a single caller runs Certify and
// Verify on each input in a closed loop, and checks that every honest
// assignment verifies and that a swapped certificate is rejected. Its
// operation is one pass over the three inputs.
func runCertify(r *runner) (*result, error) {
	var inputs []certifyInput
	setupS, err := setup(5, func() error {
		in, err := certifyInputs(r.seed)
		if err != nil {
			return err
		}
		for _, c := range in {
			if _, err := planarcert.Certify(c.net, c.scheme); err != nil {
				return fmt.Errorf("initial certify %s: %w", c.name, err)
			}
		}
		inputs = in
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := newResult()
	rng := rand.New(rand.NewSource(r.seed))
	var sizes certifyBits
	var passes []float64           // untraced pass ms
	var traced, untraced []float64 // planar Certify ms per pass
	deadline := time.Now().Add(r.dur)
	for op := 0; op < 2 || time.Now().Before(deadline); op++ {
		var tr *tracer
		if r.tr != nil && op%2 == 1 {
			tr = r.tr
		}
		t0 := time.Now()
		planarMs, ok := certifyPass(res, rng, inputs, &sizes, op, tr)
		passMs := ms(time.Since(t0))
		if !ok {
			continue
		}
		if tr != nil {
			traced = append(traced, planarMs)
		} else {
			untraced = append(untraced, planarMs)
			passes = append(passes, passMs)
		}
	}
	if len(passes) == 0 {
		return nil, fmt.Errorf("no certify pass succeeded")
	}
	res.reportOps(setupS, passes)

	if r.tr != nil {
		res.layer["core.max_cert_bits"] = metric{float64(sizes.max), "bits"}
		res.layer["core.avg_cert_bits"] = metric{sizes.sum / float64(sizes.nodes), "bits"}
		res.layer["core.np_max_cert_bits"] = metric{float64(sizes.npMax), "bits"}
		certifyLayers(r.tr, res)
		res.layer["trace.overhead_frac"] = metric{overheadFrac(traced, untraced), "frac"}
	}
	return res, nil
}

// certifyPass certifies and verifies every input once and returns the planar inputs' Certify time in
// ms. It returns false when a check failed (the failure is counted in
// res).
func certifyPass(res *result, rng *rand.Rand, inputs []certifyInput, sizes *certifyBits,
	op int, tr *tracer) (float64, bool) {
	planarMs := 0.0
	ok := true
	for _, in := range inputs {
		res.attempted++
		n := in.net.N()
		var certs planarcert.Certificates
		name := "planarcert.Certify"
		if !in.planar() {
			name = "planarcert.Certify.nonplanar"
		}
		t0 := time.Now()
		err := tr.call(name, op, -1, n, func() (err error) {
			certs, err = planarcert.Certify(in.net, in.scheme)
			return err
		})
		prove := time.Since(t0)
		if err != nil {
			res.fail("certify %s: %v", in.name, err)
			ok = false
			continue
		}
		rep, err := planarcert.Verify(in.net, in.scheme, certs)
		if err == nil && !rep.Accepted {
			err = fmt.Errorf("%d nodes rejected", len(rep.Rejecting))
		}
		if err != nil {
			res.fail("honest %s certificates rejected: %v", in.name, err)
			ok = false
			continue
		}
		// Swap one node's certificate for another's: the copy names the
		// wrong node, so a sound verifier must reject it.
		ids := in.net.IDs()
		k := rng.Intn(len(ids))
		u, v := ids[k], ids[(k+1+rng.Intn(len(ids)-1))%len(ids)]
		certs[u] = certs[v]
		bad, err := planarcert.Verify(in.net, in.scheme, certs)
		if err != nil || bad.Accepted {
			res.fail("swapped certificate at node %d of %s accepted (err %v)", u, in.name, err)
			ok = false
			continue
		}
		if in.planar() {
			planarMs += ms(prove)
		}
		if op > 0 { // certificate sizes are the same on every pass
			continue
		}
		if in.planar() {
			sizes.max = max(sizes.max, rep.MaxCertBits)
			sizes.sum += rep.AvgCertBits * float64(n)
			sizes.nodes += n
		} else {
			sizes.npMax = rep.MaxCertBits
		}
	}
	if tr == nil || !ok {
		return planarMs, ok
	}
	for _, in := range inputs {
		if err := decompose(tr, op, in); err != nil {
			res.fail("layer decomposition of %s: %v", in.name, err)
			ok = false
		}
	}
	return planarMs, ok
}

// decompose certifies in as a reference span, runs the prover's layers
// one by one as spans, certifies in again as a second reference, then
// runs the full dist verification sweep over the certificates the
// layers built. Each reference and the layer sequence start right after
// a collection, so none pays for another's garbage.
func decompose(tr *tracer, op int, in certifyInput) error {
	g := in.net.Graph()
	n := g.N()
	ref := "prove.Certify"
	if !in.planar() {
		ref = "prove.Certify.nonplanar"
	}
	root := tr.begin("decompose."+in.name, op, -1, n)
	defer tr.end(root)
	reference := func() error {
		runtime.GC()
		return tr.call(ref, op, root, n, func() error {
			_, err := planarcert.Certify(in.net, in.scheme)
			return err
		})
	}
	if err := reference(); err != nil {
		return err
	}
	runtime.GC()
	type step struct {
		name string
		f    func() error
	}
	var (
		steps  []step
		certs  map[graph.ID]bits.Certificate
		verify func(dist.View) error
	)
	if in.planar() {
		var (
			rot  *embedding.Rotation
			tf   *core.Transform
			objs map[graph.ID]*core.PlanarCert
		)
		steps = []step{
			{"planarity.Check", func() error {
				ok, r, err := planarity.Check(g)
				if err == nil && !ok {
					err = fmt.Errorf("reported non-planar")
				}
				rot = r
				return err
			}},
			{"embedding.Audit", func() error {
				ok, err := rot.IsPlanar(g)
				if err == nil && !ok {
					err = fmt.Errorf("embedding failed the Euler audit")
				}
				return err
			}},
			{"core.BuildTransform", func() (err error) { tf, err = core.BuildTransform(g, rot, 0); return err }},
			{"core.BuildPlanarCertObjects", func() (err error) { objs, _, err = core.BuildPlanarCertObjects(g, tf); return err }},
			{"core.EncodePlanarCerts", func() (err error) { certs, err = core.EncodePlanarCerts(objs); return err }},
		}
		verify = core.PlanarScheme{}.Verify
	} else {
		var (
			w     *planarity.Witness
			proof *core.NonPlanarProof
		)
		steps = []step{
			{"planarity.Kuratowski", func() (err error) { w, err = planarity.Kuratowski(g); return err }},
			{"pls.BuildTreeCerts", func() error { _, err := pls.BuildTreeCerts(g, w.Branch[0]); return err }},
			{"core.BuildNonPlanarProof", func() (err error) { proof, err = core.BuildNonPlanarProof(g); return err }},
			{"core.EncodeNonPlanarCerts", func() (err error) { certs, err = core.EncodeNonPlanarCerts(proof.Certs); return err }},
		}
		verify = core.NonPlanarScheme{}.Verify
	}
	for _, s := range steps {
		if err := tr.call(s.name, op, root, n, s.f); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
	}
	// A second reference after the layers brackets them, so a host that
	// slows down or speeds up during the decomposition moves both sides.
	if err := reference(); err != nil {
		return err
	}
	name := "dist.RunPLS"
	if !in.planar() {
		name = "dist.RunPLS.nonplanar"
	}
	return tr.call(name, op, root, n, func() error {
		if out := dist.NewEngine(g).RunPLS(certs, verify); !out.AllAccept() {
			return fmt.Errorf("%d nodes rejected the layer-built certificates", len(out.Rejecting))
		}
		return nil
	})
}

// certifyLayers turns the recorded spans into the per-layer metrics.
func certifyLayers(tr *tracer, res *result) {
	layers := []struct{ metric, span string }{
		{"planarity.check", "planarity.Check"},
		{"embedding.audit", "embedding.Audit"},
		{"core.transform", "core.BuildTransform"},
		{"core.certobjs", "core.BuildPlanarCertObjects"},
		{"core.encode", "core.EncodePlanarCerts"},
		{"planarity.kuratowski", "planarity.Kuratowski"},
		{"pls.tree_certs", "pls.BuildTreeCerts"},
		{"core.np_proof", "core.BuildNonPlanarProof"},
		{"core.np_encode", "core.EncodeNonPlanarCerts"},
	}
	for _, l := range layers {
		res.layer[l.metric+"_ms"] = metric{median(tr.perTrace(l.span)), "ms"}
		res.layer[l.metric+".allocs_per_node"] = metric{tr.allocsPerNode(l.span), "allocs/node"}
	}
	res.layer["dist.sweep_ms"] = metric{median(tr.perTrace("dist.RunPLS")), "ms"}
	res.layer["dist.np_sweep_ms"] = metric{median(tr.perTrace("dist.RunPLS.nonplanar")), "ms"}

	// prove.unattributed_frac: per traced pass, the share of the planar
	// Certify time (the mean of the two references) the five prover
	// layers do not account for.
	var fracs []float64
	for id, c := range tr.sums("prove.Certify") {
		var sum float64
		for _, l := range layers[:5] {
			sum += tr.sums(l.span)[id]
		}
		fracs = append(fracs, 1-sum/(c/2))
	}
	frac := median(fracs)
	res.layer["prove.unattributed_frac"] = metric{frac, "frac"}
	res.check(math.Abs(frac) <= proveSlack, "prove.unattributed_frac %.3f outside the ±%g slack", frac, proveSlack)
}
