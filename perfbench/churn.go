package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	planarcert "github.com/planarcert/planarcert"
	"github.com/planarcert/planarcert/internal/gen"
)

const (
	churnN        = 4096 // nodes of the base cycle
	churnSpan     = 32   // longest chord span
	churnChords   = 64   // chord count the add/remove mix reverts to
	churnOps      = 4    // updates per batch
	churnEdgeEach = 16   // every 16th batch toggles one cycle edge
	churnTail     = 0.98 // batch.tail_ms percentile
)

// addLaminar adds a random chord of span 2..churnSpan to c that crosses
// none of its chords, so the cycle plus its chords stays outerplanar.
func addLaminar(c *chordSet, rng *rand.Rand) (planarcert.Update, bool) {
	for tries := 0; tries < 32; tries++ {
		a := rng.Intn(churnN - churnSpan)
		b := a + 2 + rng.Intn(churnSpan-1)
		if c.present[[2]int{a, b}] || crosses(c, a, b) {
			continue
		}
		u := edge(true, a, b)
		c.track(u)
		return u, true
	}
	return planarcert.Update{}, false
}

// crosses reports whether chord {a, b} crosses a chord of c.
func crosses(c *chordSet, a, b int) bool {
	for _, ch := range c.list {
		x, y := ch[0], ch[1]
		if (x < a && a < y && y < b) || (a < x && x < b && b < y) {
			return true
		}
	}
	return false
}

// runChurn drives one in-process planarity Session in a closed loop
// with batches of short laminar chord additions and removals on a
// cycle; every 16th batch also removes or restores one cycle edge. A
// chord is removed with probability chords/(2*churnChords), so the
// chord count hovers around churnChords instead of drifting with run
// length. Its operation is one Session.Apply.
func runChurn(r *runner) (*result, error) {
	var (
		sess   *planarcert.Session
		mirror *planarcert.Network
	)
	setupS, err := setup(11, func() error {
		net := planarcert.FromGraph(gen.Cycle(churnN))
		s, err := planarcert.NewSession(net, planarcert.SchemePlanarity, planarcert.EngineConfig{})
		if err != nil {
			return err
		}
		if !s.Certified() {
			return fmt.Errorf("initial cycle not certified")
		}
		sess, mirror = s, net // the session works on its own clone
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := newResult()
	rng := rand.New(rand.NewSource(r.seed))
	chords := newChordSet()
	removed := -1 // the cycle edge (removed, removed+1) currently absent
	var (
		lat, traced, untraced []float64
		dyn                   = newDynStats()
		allocs                []float64
	)
	deadline := time.Now().Add(r.dur)
	for bi := 0; time.Now().Before(deadline); bi++ {
		ups := make([]planarcert.Update, 0, churnOps)
		if bi%churnEdgeEach == churnEdgeEach-1 {
			if removed >= 0 {
				ups = append(ups, edge(true, removed, removed+1))
				removed = -1
			} else {
				removed = rng.Intn(churnN - 1)
				ups = append(ups, edge(false, removed, removed+1))
			}
		}
		for len(ups) < churnOps {
			if rng.Intn(2*churnChords) < len(chords.list) {
				ch := chords.pick(rng)
				u := edge(false, ch[0], ch[1])
				chords.track(u)
				ups = append(ups, u)
			} else if u, ok := addLaminar(chords, rng); ok {
				ups = append(ups, u)
			}
		}
		if err := applyToMirror(mirror, ups); err != nil {
			return nil, err
		}

		sp := -1
		if r.tr != nil && bi%2 == 1 {
			sp = r.tr.begin("planarcert.Session.Apply", bi, -1, len(ups))
		}
		t0 := time.Now()
		rep, err := sess.Apply(ups)
		d := ms(time.Since(t0))
		if sp >= 0 {
			r.tr.end(sp)
			allocs = append(allocs, float64(r.tr.spans[sp].Allocs))
		}
		res.attempted++
		if err != nil {
			res.fail("batch %d: %v", bi, err)
			continue
		}
		if !rep.Accepted {
			res.fail("batch %d (%s) not accepted", bi, rep.Mode)
		}
		lat = append(lat, d)
		dyn.observe(rep, d)
		if sp >= 0 {
			traced = append(traced, d)
		} else {
			untraced = append(untraced, d)
		}
	}

	hi, lo := sess.Fingerprint()
	mhi, mlo := mirror.Fingerprint()
	res.check(hi == mhi && lo == mlo && sess.Certified(),
		"final session graph differs from the client mirror or is uncertified")
	if len(lat) == 0 {
		return nil, fmt.Errorf("no batch completed")
	}

	res.reportOps(setupS, lat)
	if r.tr != nil {
		dyn.report(res)
		res.layer["batch.tail_ms"] = metric{tail("session-churn batch.tail_ms", lat, churnTail), "ms"}
		res.layer["dynamic.apply_allocs_per_batch"] = metric{mean(allocs), "allocs"}
		res.layer["batch.samples"] = metric{float64(len(lat)), "count"}
		res.layer["trace.overhead_frac"] = metric{overheadFrac(traced, untraced), "frac"}
	}
	return res, nil
}

// dynStats accumulates the dynamic layer's view of a stream of batch
// reports.
type dynStats struct {
	modes    map[string]int
	byMode   map[string][]float64 // batch time in ms, by absorption mode
	dirty    []float64            // dirty nodes per non-noop batch
	frontier []float64            // verified nodes per repair batch
	fallback map[string]int
}

func newDynStats() *dynStats {
	return &dynStats{modes: map[string]int{}, byMode: map[string][]float64{}, fallback: map[string]int{
		"chord_over_threshold": 0, "tree_edge_removed": 0, "no_attachment": 0,
		"witness_edge_removed": 0, "other": 0,
	}}
}

// observe records one batch report and its execution time in ms.
func (d *dynStats) observe(rep *planarcert.SessionReport, execMs float64) {
	d.modes[rep.Mode]++
	d.byMode[rep.Mode] = append(d.byMode[rep.Mode], execMs)
	if rep.Mode != "noop" {
		d.dirty = append(d.dirty, float64(rep.Dirty))
	}
	if rep.Mode == "repair" {
		d.frontier = append(d.frontier, float64(rep.Verified))
	}
	if rep.RepairFallback != "" {
		d.fallback[fallbackBucket(rep.RepairFallback)]++
	}
}

// fallbackBucket classifies a RepairFallback explanation.
func fallbackBucket(reason string) string {
	switch {
	case strings.HasPrefix(reason, "chord [") && strings.HasSuffix(reason, "exceeds repair threshold"):
		return "chord_over_threshold"
	case strings.Contains(reason, "spanning-tree edge removed") || strings.Contains(reason, "tree-edge removal"):
		return "tree_edge_removed"
	case strings.Contains(reason, "no non-crossing chord attachment"):
		return "no_attachment"
	case strings.Contains(reason, "witness edge"):
		return "witness_edge_removed"
	default:
		return "other"
	}
}

// report writes the dynamic layer's per-layer metrics.
func (d *dynStats) report(res *result) {
	for _, m := range []string{"repair", "reprove", "flip", "cache", "noop"} {
		res.layer["dynamic."+m+"_batches"] = metric{float64(d.modes[m]), "count"}
	}
	if active := len(d.dirty); active > 0 {
		res.layer["dynamic.repair_frac"] = metric{float64(d.modes["repair"]) / float64(active), "frac"}
	}
	res.layer["dynamic.repair_p50_ms"] = metric{median(d.byMode["repair"]), "ms"}
	res.layer["dynamic.reprove_p50_ms"] = metric{median(d.byMode["reprove"]), "ms"}
	res.layer["dynamic.dirty_nodes_mean"] = metric{mean(d.dirty), "nodes"}
	res.layer["dist.frontier_nodes_mean"] = metric{mean(d.frontier), "nodes"}
	for b, n := range d.fallback {
		res.layer["dynamic.fallback."+b] = metric{float64(n), "count"}
	}
}
