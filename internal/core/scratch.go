package core

import (
	"github.com/planarcert/planarcert/internal/bits"
	"github.com/planarcert/planarcert/internal/dist"
	"github.com/planarcert/planarcert/internal/graph"
	"github.com/planarcert/planarcert/internal/pls"
)

// This file holds the per-worker decode scratch of the scheme verifiers.
// The verifiers run once per node per sweep, and profiling showed the
// sweep cost was dominated by the fresh maps, slices and decoded
// certificate objects each call built: ~96 allocations and ~7.6KB of
// heap per node, enough to make whole-network throughput *fall* with
// scale. Every scheme therefore keeps its decode state in a scratch
// struct stored in the worker's dist.Scratch slot (see dist.View):
// certificate slabs instead of per-node objects, generation-stamped
// rank tables instead of per-node maps, and one reusable bits.Reader.
//
// Ownership contract (also documented in ARCHITECTURE.md):
//   - the engine owns the dist.Scratch and hands it to one worker at a
//     time; schemes own the typed state inside their slot;
//   - everything in the scratch is garbage on entry — reset is the
//     scheme's first step, and nothing decoded for one node may
//     influence another node's verdict (the decode-parity suite and
//     FuzzScratchReuse enforce this);
//   - views with a nil Scratch (direct Verify calls, the interactive
//     protocols) fall back to a fresh scratch per call, which is
//     exactly the old fresh-allocation behavior — both paths run the
//     same code, so pooled and fresh decisions cannot drift apart.

// rankMap is a generation-stamped open-addressing hash table keyed by
// ranks (small ints, but adversarial certificates can claim ranks up to
// 2^63, so a dense array indexed by rank is not an option). Bumping the
// generation invalidates every entry in O(1), which is what makes
// per-node reuse free: no clearing, no allocation, stable backing
// arrays that grow to the working-set size and stay there.
type rankMap[V any] struct {
	keys []int64
	vals []V
	gens []uint32
	gen  uint32
	live int
}

// reset invalidates all entries (O(1) except on generation wraparound).
func (m *rankMap[V]) reset() {
	if len(m.keys) == 0 {
		m.rehash(16)
		m.gen = 1
		return
	}
	m.live = 0
	m.gen++
	if m.gen == 0 { // 2^32 resets: stamps are ambiguous, wipe them
		clear(m.gens)
		m.gen = 1
	}
}

// slot returns the index holding key, or the free slot where it would
// be inserted (linear probing, no deletions).
func (m *rankMap[V]) slot(key int) int {
	mask := len(m.keys) - 1
	i := int((uint64(key)*0x9E3779B97F4A7C15)>>33) & mask
	for m.gens[i] == m.gen && m.keys[i] != int64(key) {
		i = (i + 1) & mask
	}
	return i
}

// get returns the value stored under key this generation.
func (m *rankMap[V]) get(key int) (V, bool) {
	i := m.slot(key)
	if m.gens[i] == m.gen {
		return m.vals[i], true
	}
	var zero V
	return zero, false
}

// put inserts or overwrites key.
func (m *rankMap[V]) put(key int, val V) {
	i := m.slot(key)
	if m.gens[i] != m.gen {
		if 2*(m.live+1) > len(m.keys) {
			m.rehash(2 * len(m.keys))
			i = m.slot(key)
		}
		m.gens[i] = m.gen
		m.keys[i] = int64(key)
		m.live++
	}
	m.vals[i] = val
}

// each visits every live entry (iteration order is unspecified, exactly
// like the map it replaces).
func (m *rankMap[V]) each(f func(key int, val V)) {
	for i, g := range m.gens {
		if g == m.gen {
			f(int(m.keys[i]), m.vals[i])
		}
	}
}

// rehash moves live entries into fresh power-of-two arrays.
func (m *rankMap[V]) rehash(size int) {
	oldKeys, oldVals, oldGens, oldGen := m.keys, m.vals, m.gens, m.gen
	m.keys = make([]int64, size)
	m.vals = make([]V, size)
	m.gens = make([]uint32, size)
	if m.gen == 0 {
		m.gen = 1
	}
	for i, g := range oldGens {
		if g == oldGen {
			j := m.slot(int(oldKeys[i]))
			m.gens[j] = m.gen
			m.keys[j] = oldKeys[i]
			m.vals[j] = oldVals[i]
		}
	}
}

// grow2 returns s resized to length n, preserving existing entries (and
// therefore the capacity of any slices they hold) across growth.
func grow2[T any](s []T, n int) []T {
	if cap(s) < n {
		nw := make([]T, n)
		copy(nw, s[:cap(s)])
		return nw
	}
	return s[:n]
}

// planarScratch is the decode state of the planarity verifier
// (Algorithm 2), shared with the outerplanarity scheme which layers one
// extra check on the same reconstruction.
type planarScratch struct {
	r        bits.Reader
	self     PlanarCert
	nbrs     []PlanarCert    // decoded neighbor certificates, by view position
	treeNbrs []*pls.TreeCert // their spanning-tree sub-proofs
	edgeSlab []EdgeCert      // all edge certificates decoded for this view
	edgePtrs []*EdgeCert     // backing for the decoded certs' Edges slices
	edgeOne  []*EdgeCert     // per neighbor position: the first certificate recovered for edge {me, nb}
	edgeCnt  []int32         // per neighbor position: how many were recovered
	claims   rankMap[Interval]
	copyIdx  rankMap[int]
	children []childInfo
	copies   []int          // my reconstructed copies f^{-1}(me)
	cotree   [][]PONeighbor // cotree attachments per copy index
	po       poNodeScratch
}

type planarScratchKey struct{}

// planarScratchFor returns the worker's planar scratch, creating it on
// first use; a nil view.Scratch yields a fresh one per call.
func planarScratchFor(view dist.View) *planarScratch {
	if v := view.Scratch.Slot(planarScratchKey{}); v != nil {
		return v.(*planarScratch)
	}
	sc := &planarScratch{}
	view.Scratch.SetSlot(planarScratchKey{}, sc)
	return sc
}

// reset prepares the scratch for a view with deg neighbors. Every
// region is either truncated to zero length or fully overwritten before
// use, so nothing from the previous node can leak into this one.
func (sc *planarScratch) reset(deg int) {
	sc.nbrs = grow2(sc.nbrs, deg)
	sc.treeNbrs = sc.treeNbrs[:0]
	// Pre-size the slabs so decoding never reallocates mid-node: the cap
	// bounds certificates at MaxEdgeCerts edges each.
	need := (deg + 1) * MaxEdgeCerts
	if cap(sc.edgeSlab) < need {
		sc.edgeSlab = make([]EdgeCert, 0, need)
		sc.edgePtrs = make([]*EdgeCert, 0, need)
	} else {
		sc.edgeSlab = sc.edgeSlab[:0]
		sc.edgePtrs = sc.edgePtrs[:0]
	}
	sc.edgeOne = grow2(sc.edgeOne, deg)
	sc.edgeCnt = grow2(sc.edgeCnt, deg)
	for i := 0; i < deg; i++ {
		sc.edgeOne[i] = nil
		sc.edgeCnt[i] = 0
	}
	sc.claims.reset()
	sc.copyIdx.reset()
	sc.children = sc.children[:0]
	sc.copies = sc.copies[:0]
}

// newEdgeCert carves one zeroed EdgeCert out of the slab.
func (sc *planarScratch) newEdgeCert() *EdgeCert {
	sc.edgeSlab = append(sc.edgeSlab, EdgeCert{})
	return &sc.edgeSlab[len(sc.edgeSlab)-1]
}

// cotreeFor sizes the per-copy cotree attachment lists, keeping the
// inner slices' capacity across nodes.
func (sc *planarScratch) cotreeFor(copies int) {
	sc.cotree = grow2(sc.cotree, copies)
	for j := range sc.cotree {
		sc.cotree[j] = sc.cotree[j][:0]
	}
}

// poNodeScratch is the scratch of the Algorithm 1 simulation at one
// path-outerplanar vertex: the planarity verifier runs it once per
// copy (2n-1 times across a sweep), the standalone PO scheme once per
// node.
type poNodeScratch struct {
	viewNbrs    []PONeighbor // caller-assembled neighbor list
	left, right []PONeighbor
	seen        rankMap[struct{}]
}

// npScratch is the decode state of the non-planarity verifier.
type npScratch struct {
	r        bits.Reader
	self     NonPlanarCert
	nbrs     []NonPlanarCert
	treeNbrs []*pls.TreeCert
}

type npScratchKey struct{}

func npScratchFor(view dist.View) *npScratch {
	if v := view.Scratch.Slot(npScratchKey{}); v != nil {
		return v.(*npScratch)
	}
	sc := &npScratch{}
	view.Scratch.SetSlot(npScratchKey{}, sc)
	return sc
}

func (sc *npScratch) reset(deg int) {
	sc.nbrs = grow2(sc.nbrs, deg) // grow2 keeps each entry's BranchIDs backing
	sc.treeNbrs = sc.treeNbrs[:0]
}

// byID returns the decoded certificate of the neighbor with the given
// identifier, or nil (replaces the per-node map keyed by neighbor ID;
// callers look up at most a handful of IDs per node).
func (sc *npScratch) byID(view dist.View, id graph.ID) *NonPlanarCert {
	for i := range view.Neighbors {
		if view.Neighbors[i].ID == id {
			return &sc.nbrs[i]
		}
	}
	return nil
}

// poScratch is the decode state of the standalone path-outerplanarity
// verifier (Lemma 2).
type poScratch struct {
	r        bits.Reader
	self     POCert
	nbrs     []POCert
	treeNbrs []*pls.TreeCert
	po       poNodeScratch
}

type poScratchKey struct{}

func poScratchFor(view dist.View) *poScratch {
	if v := view.Scratch.Slot(poScratchKey{}); v != nil {
		return v.(*poScratch)
	}
	sc := &poScratch{}
	view.Scratch.SetSlot(poScratchKey{}, sc)
	return sc
}

func (sc *poScratch) reset(deg int) {
	sc.nbrs = grow2(sc.nbrs, deg)
	sc.treeNbrs = sc.treeNbrs[:0]
	sc.po.viewNbrs = sc.po.viewNbrs[:0]
}
