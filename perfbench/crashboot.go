package main

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	planarcert "github.com/planarcert/planarcert"
	"github.com/planarcert/planarcert/internal/server"
	"github.com/planarcert/planarcert/internal/wal"
)

const (
	bootN     = 50000 // nodes of the durable session's path
	bootTail  = 4     // batches left in the WAL tail past the snapshot
	bootOps   = 4     // chord additions per batch
	bootName  = "boot"
	bootBatch = "first post-boot batch"

	// bootSlack bounds boot.unattributed_frac: snapshot decode, log
	// decode, restore and tail apply must account for the boot time to
	// within this share.
	bootSlack = 0.35
)

// bootImage is a data directory in the shape a SIGKILL leaves: a
// snapshot plus a WAL tail, with no final snapshot.
type bootImage struct {
	dir    string
	mirror *planarcert.Network // the acked topology
	first  []planarcert.Update // the first batch a booted server receives
}

// chordBatch turns chord start points into a batch of disjoint chords
// {a, a+2}; chords that share no node and nest nothing cannot cross.
func chordBatch(starts []int) []planarcert.Update {
	ups := make([]planarcert.Update, len(starts))
	for i, a := range starts {
		ups[i] = edge(true, a, a+2)
	}
	return ups
}

// buildBootImage creates a durable session on a path of bootN nodes,
// logs bootTail chord batches and copies the data directory while the
// server is still up, which is the state a SIGKILL would leave.
func buildBootImage(work string, seed int64) (*bootImage, error) {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(bootN/3 - 1)
	starts := func(k int) []int {
		out := make([]int, bootOps)
		for i := range out {
			out[i] = 3 * perm[k*bootOps+i]
		}
		return out
	}
	net := pathNetwork(bootN)

	build := filepath.Join(work, "boot-build")
	srv := server.New(server.Config{DataDir: build, SnapshotEvery: 1 << 20, Fsync: wal.SyncNever})
	if err := srv.Recover(); err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	client := &http.Client{}
	defer func() {
		ts.Close()
		srv.Close()
		client.CloseIdleConnections()
		os.RemoveAll(build)
	}()
	body, err := json.Marshal(server.CreateSessionRequest{Name: bootName, Scheme: planarcert.SchemePlanarity,
		Graph: server.GraphSpec{Edges: net.Edges()}})
	if err != nil {
		return nil, err
	}
	if _, err := request(client, http.MethodPost, ts.URL+"/v1/sessions", "application/json", body, http.StatusCreated); err != nil {
		return nil, err
	}
	for k := 0; k < bootTail; k++ {
		ups := chordBatch(starts(k))
		if _, err := request(client, http.MethodPost, ts.URL+"/v1/sessions/"+bootName+"/updates", "application/x-ndjson", ndjson(ups), http.StatusOK); err != nil {
			return nil, fmt.Errorf("tail batch %d: %w", k, err)
		}
		if err := applyToMirror(net, ups); err != nil {
			return nil, err
		}
	}
	img := &bootImage{dir: filepath.Join(work, "boot-image"), mirror: net, first: chordBatch(starts(bootTail))}
	if err := os.RemoveAll(img.dir); err != nil {
		return nil, err
	}
	if err := copyDir(build, img.dir); err != nil {
		return nil, err
	}
	return img, nil
}

// copyDir copies the regular files under src to dst.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}

// runCrashBoot times a durable server's crash boot: Recover on a copy
// of the SIGKILL-shaped image through the ack of the first client batch.
// Its operation is one such boot.
func runCrashBoot(r *runner) (*result, error) {
	var img *bootImage
	setupS, err := setup(5, func() (err error) {
		img, err = buildBootImage(r.workDir, r.seed)
		return err
	})
	if err != nil {
		return nil, err
	}
	want := img.mirror.Clone()
	if err := applyToMirror(want, img.first); err != nil {
		return nil, err
	}
	whi, wlo := want.Fingerprint()
	wantFP := fmt.Sprintf("%016x%016x", whi, wlo)

	res := newResult()
	var boots, bootMs, traced, untraced, unattributed, reproves []float64
	deadline := time.Now().Add(r.dur)
	for op := 0; op < 2 || time.Now().Before(deadline); op++ {
		dir := filepath.Join(r.workDir, "boot-"+strconv.Itoa(op))
		if err := copyDir(img.dir, dir); err != nil {
			return nil, err
		}
		tr := r.tr
		if op%2 == 0 {
			tr = nil
		}
		res.attempted++
		boot, fp, err := crashBoot(dir, img.first, tr, op)
		if rmErr := os.RemoveAll(dir); rmErr != nil {
			return nil, rmErr
		}
		if err == nil && fp != wantFP {
			err = fmt.Errorf("recovered graph %s differs from the acked mirror %s", fp, wantFP)
		}
		if err != nil {
			res.fail("boot %d: %v", op, err)
			continue
		}
		boots = append(boots, boot)
		bootMs = append(bootMs, boot*1e3)
		if tr == nil {
			untraced = append(untraced, boot)
			continue
		}
		traced = append(traced, boot)
		res.attempted++
		partsMs, tailReproves, err := bootLayers(img, filepath.Join(r.workDir, "boot-layers"), tr, op)
		if err != nil {
			res.fail("boot %d layer decomposition: %v", op, err)
			continue
		}
		reproves = append(reproves, float64(tailReproves))
		unattributed = append(unattributed, 1-partsMs/1e3/boot)
	}
	if len(boots) == 0 {
		return nil, fmt.Errorf("no boot succeeded")
	}
	res.reportOps(setupS, bootMs)
	if r.tr != nil {
		for _, l := range []struct{ metric, span string }{
			{"wal.snapshot_decode_ms", "wal.DecodeSnapshot"},
			{"wal.log_decode_ms", "wal.OpenLog"},
			{"boot.network_ms", "boot.network"},
			{"dynamic.restore_ms", "planarcert.RestoreSession"},
			{"dynamic.tail_apply_ms", "planarcert.Session.Apply.tail"},
			{"boot.first_batch_ms", "http.POST.first"},
		} {
			res.layer[l.metric] = metric{median(r.tr.perTrace(l.span)), "ms"}
		}
		res.layer["dynamic.tail_reprove_batches"] = metric{median(reproves), "count"}
		frac := median(unattributed)
		res.layer["boot.unattributed_frac"] = metric{frac, "frac"}
		res.check(math.Abs(frac) <= bootSlack, "boot.unattributed_frac %.3f outside the ±%g slack", frac, bootSlack)
		res.layer["trace.overhead_frac"] = metric{overheadFrac(traced, untraced), "frac"}
	}
	return res, nil
}

// crashBoot boots a server on dir, sends it the first batch and returns
// the boot time in seconds and the recovered graph's fingerprint. The
// server leaves flushing to the page cache, as on serve: the compaction
// snapshot Recover writes is megabytes, and its fsync on a shared
// virtual disk made the boot time follow the host's disk load.
func crashBoot(dir string, first []planarcert.Update, tr *tracer, op int) (float64, string, error) {
	srv := server.New(server.Config{DataDir: dir, Fsync: wal.SyncNever})
	client := &http.Client{}
	defer client.CloseIdleConnections()
	t0 := time.Now()
	if err := srv.Recover(); err != nil {
		return 0, "", err
	}
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Close()
	}()
	var raw []byte
	err := tr.call("http.POST.first", op, -1, 0, func() (err error) {
		raw, err = request(client, http.MethodPost, ts.URL+"/v1/sessions/"+bootName+"/updates", "application/x-ndjson", ndjson(first), http.StatusOK)
		return err
	})
	boot := time.Since(t0).Seconds()
	if err != nil {
		return 0, "", fmt.Errorf("%s: %w", bootBatch, err)
	}
	var ack server.UpdatesResponse
	if err := json.Unmarshal(raw, &ack); err != nil {
		return 0, "", fmt.Errorf("%s: decode ack: %w", bootBatch, err)
	}
	if ack.Report == nil || !ack.Report.Accepted {
		return 0, "", fmt.Errorf("%s not accepted", bootBatch)
	}
	raw, err = request(client, http.MethodGet, ts.URL+"/v1/sessions/"+bootName+"/graph", "", nil, http.StatusOK)
	if err != nil {
		return 0, "", err
	}
	var ge server.GraphExport
	if err := json.Unmarshal(raw, &ge); err != nil {
		return 0, "", err
	}
	return boot, ge.Fingerprint, nil
}

// bootLayers replays a crash boot's recovery one layer at a time on a
// fresh copy of the image: snapshot decode, WAL decode, restore and
// tail replay. It returns the summed milliseconds of those four layers
// and the number of tail batches that re-proved, and checks the
// restored graph against the acked mirror.
func bootLayers(img *bootImage, dir string, tr *tracer, op int) (float64, int, error) {
	if err := os.RemoveAll(dir); err != nil {
		return 0, 0, err
	}
	if err := copyDir(img.dir, dir); err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	root, err := wal.OpenRoot(dir, wal.SyncNever)
	if err != nil {
		return 0, 0, err
	}
	sdirs, err := root.SessionDirs()
	if err != nil || len(sdirs) != 1 {
		return 0, 0, fmt.Errorf("want one session dir, got %d (err %v)", len(sdirs), err)
	}
	sdir := sdirs[0]
	newest, err := newestSnapshot(sdir)
	if err != nil {
		return 0, 0, err
	}
	parent := tr.begin("boot.layers", op, -1, bootN)
	defer tr.end(parent)

	var snap *wal.Snapshot
	if err := tr.call("wal.DecodeSnapshot", op, parent, bootN, func() error {
		raw, err := os.ReadFile(newest)
		if err != nil {
			return err
		}
		snap, err = wal.DecodeSnapshot(raw)
		return err
	}); err != nil {
		return 0, 0, err
	}
	var batches []wal.Batch
	if err := tr.call("wal.OpenLog", op, parent, bootN, func() error {
		l, bs, _, err := wal.OpenLog(filepath.Join(sdir, "wal.log"), wal.SyncNever)
		if err != nil {
			return err
		}
		batches = bs
		return l.Close()
	}); err != nil {
		return 0, 0, err
	}
	net := planarcert.NewNetwork()
	if err := tr.call("boot.network", op, parent, bootN, func() error {
		for _, id := range snap.Nodes {
			if err := net.AddNode(planarcert.NodeID(id)); err != nil {
				return err
			}
		}
		for _, e := range snap.Edges {
			if err := net.AddEdge(planarcert.NodeID(e[0]), planarcert.NodeID(e[1])); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return 0, 0, err
	}
	certs := make(planarcert.Certificates, len(snap.Certs))
	for _, c := range snap.Certs {
		certs[planarcert.NodeID(c.ID)] = planarcert.Certificate{Data: c.Data, Bits: int(c.Bits)}
	}
	var opts []planarcert.SessionOption
	if snap.RepairThreshold != 0 {
		opts = append(opts, planarcert.WithRepairThreshold(int(snap.RepairThreshold)))
	}
	if snap.CacheSize != 0 {
		opts = append(opts, planarcert.WithCacheSize(int(snap.CacheSize)))
	}
	if snap.NoFlip {
		opts = append(opts, planarcert.WithoutFlip())
	}
	var sess *planarcert.Session
	if err := tr.call("planarcert.RestoreSession", op, parent, bootN, func() (err error) {
		sess, err = planarcert.RestoreSession(&planarcert.SessionSnapshot{
			Scheme:       planarcert.SchemeName(snap.Scheme),
			ActiveScheme: planarcert.SchemeName(snap.ActiveScheme),
			Generation:   snap.Generation,
			Network:      net,
			Certificates: certs,
		}, planarcert.EngineConfig{}, opts...)
		return err
	}); err != nil {
		return 0, 0, err
	}
	reproves := 0
	if err := tr.call("planarcert.Session.Apply.tail", op, parent, bootN, func() error {
		for _, b := range batches {
			if b.Seq <= snap.Seq {
				continue
			}
			ups := make([]planarcert.Update, len(b.Updates))
			for i, u := range b.Updates {
				a, c := planarcert.NodeID(u.A), planarcert.NodeID(u.B)
				switch u.Op {
				case wal.OpAddEdge:
					ups[i] = planarcert.EdgeAdd(a, c)
				case wal.OpRemoveEdge:
					ups[i] = planarcert.EdgeRemove(a, c)
				default:
					ups[i] = planarcert.NodeAdd(a)
				}
			}
			rep, err := sess.Apply(ups)
			if err != nil {
				return err
			}
			if !rep.Accepted {
				return fmt.Errorf("tail batch %d not accepted", b.Seq)
			}
			if rep.Mode == "reprove" {
				reproves++
			}
		}
		return nil
	}); err != nil {
		return 0, 0, err
	}
	hi, lo := sess.Fingerprint()
	mhi, mlo := img.mirror.Fingerprint()
	if hi != mhi || lo != mlo {
		return 0, 0, fmt.Errorf("restored graph differs from the acked mirror")
	}
	var sum float64
	for _, name := range []string{"wal.DecodeSnapshot", "wal.OpenLog", "planarcert.RestoreSession", "planarcert.Session.Apply.tail"} {
		sum += tr.sums(name)[op]
	}
	return sum, reproves, nil
}

// newestSnapshot returns the path of the snapshot file with the highest
// sequence number in a session directory.
func newestSnapshot(sdir string) (string, error) {
	entries, err := os.ReadDir(sdir)
	if err != nil {
		return "", err
	}
	best, bestSeq := "", int64(-1)
	for _, e := range entries {
		name := e.Name()
		rest, ok := strings.CutPrefix(name, "snap-")
		if !ok || !strings.HasSuffix(name, ".snap") {
			continue
		}
		seqStr, _, _ := strings.Cut(strings.TrimSuffix(rest, ".snap"), "-")
		seq, err := strconv.ParseInt(seqStr, 10, 64)
		if err == nil && seq > bestSeq {
			best, bestSeq = filepath.Join(sdir, name), seq
		}
	}
	if best == "" {
		return "", fmt.Errorf("no snapshot in %s", sdir)
	}
	return best, nil
}
