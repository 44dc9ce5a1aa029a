package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	planarcert "github.com/planarcert/planarcert"
	"github.com/planarcert/planarcert/internal/obs"
	"github.com/planarcert/planarcert/internal/server"
	"github.com/planarcert/planarcert/internal/wal"
	"github.com/planarcert/planarcert/internal/wire"
)

const (
	serveN      = 200  // nodes of each session's base path
	serveOps    = 4    // updates per batch
	serveChords = 32   // chord count the add/remove mix reverts to
	serveRevert = 8    // about one batch in serveRevert undoes its predecessor
	serveTail   = 0.99 // batch.tail_ms percentile
	walReplayN  = 200  // acked batches replayed through wal.Store.AppendBatch
)

// serveSession is the client side of one planarcertd session: its chord
// set, its mirror of the server's graph and what was sent to it.
type serveSession struct {
	name    string
	binary  bool
	rng     *rand.Rand
	mirror  *planarcert.Network
	chords  *chordSet
	last    []planarcert.Update
	batches [][]planarcert.Update // acked batches, in order
	bodies  [][]byte              // their request bodies
}

func newServeSession(name string, binary bool, seed int64) *serveSession {
	return &serveSession{name: name, binary: binary, rng: rand.New(rand.NewSource(seed)),
		mirror: pathNetwork(serveN), chords: newChordSet()}
}

// next draws the session's next batch: random chords of the base path
// added or removed, or, about one time in serveRevert, the exact
// inverse of the previous batch (a flapping link). A chord is removed
// with probability chords/(2*serveChords), so the chord count hovers
// around serveChords instead of drifting with run length.
func (s *serveSession) next() []planarcert.Update {
	var ups []planarcert.Update
	if s.last != nil && s.rng.Intn(serveRevert) == 0 {
		for i := len(s.last) - 1; i >= 0; i-- {
			u := s.last[i]
			ups = append(ups, edge(u.Op != planarcert.OpAddEdge, int(u.A), int(u.B)))
			s.chords.track(ups[len(ups)-1])
		}
	}
	for len(ups) < serveOps {
		if s.rng.Intn(2*serveChords) < len(s.chords.list) {
			c := s.chords.pick(s.rng)
			ups = append(ups, edge(false, c[0], c[1]))
		} else {
			a := s.rng.Intn(serveN - 2)
			b := a + 2 + s.rng.Intn(serveN-a-2)
			if s.chords.present[[2]int{a, b}] {
				continue
			}
			ups = append(ups, edge(true, a, b))
		}
		s.chords.track(ups[len(ups)-1])
	}
	s.last = ups
	return ups
}

// body encodes a batch as the session's transport sends it.
func (s *serveSession) body(ups []planarcert.Update) ([]byte, string, error) {
	if s.binary {
		frame, err := planarcert.EncodeUpdatesFrame("apply", ups)
		return frame, planarcert.WireContentType, err
	}
	return ndjson(ups), "application/x-ndjson", nil
}

// serveEnv is one running in-process planarcertd with its two sessions
// and the binary watch subscriber.
type serveEnv struct {
	srv      *server.Server
	ts       *httptest.Server
	client   *http.Client
	sessions []*serveSession
	watch    *watcher
}

// startServe boots a durable server in dir and creates its sessions.
// The WAL logs every batch before its ack but leaves flushing to the
// page cache: a per-batch fsync on a shared virtual disk varied threefold
// within minutes and drowned the program's own round-trip time.
// wal.append_us_per_batch still times fsync-always appends.
func startServe(dir string, seed int64) (*serveEnv, error) {
	srv := server.New(server.Config{DataDir: dir, Fsync: wal.SyncNever})
	if err := srv.Recover(); err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	env := &serveEnv{srv: srv, ts: ts, client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2}}}
	env.sessions = []*serveSession{newServeSession("bin", true, seed), newServeSession("json", false, seed+1)}
	for _, s := range env.sessions {
		body, err := json.Marshal(server.CreateSessionRequest{Name: s.name, Scheme: planarcert.SchemePlanarity,
			Graph: server.GraphSpec{Edges: s.mirror.Edges()}})
		if err != nil {
			env.close()
			return nil, err
		}
		if _, err := env.do(http.MethodPost, "/v1/sessions", "application/json", body, http.StatusCreated); err != nil {
			env.close()
			return nil, fmt.Errorf("create %s: %w", s.name, err)
		}
	}
	return env, nil
}

// do sends one request to the server and returns the body, failing on
// any status other than want.
func (env *serveEnv) do(method, path, contentType string, body []byte, want int) ([]byte, error) {
	return request(env.client, method, env.ts.URL+path, contentType, body, want)
}

// request sends one request and returns the body, failing on any status
// other than want.
func request(client *http.Client, method, url, contentType string, body []byte, want int) ([]byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, raw)
	}
	return raw, nil
}

func (env *serveEnv) close() {
	if env.watch != nil {
		env.watch.stop()
	}
	env.ts.Close()
	env.srv.Close()
	env.client.CloseIdleConnections()
}

// watcher is the binary watch subscriber: it records when each event
// version arrives.
type watcher struct {
	cancel context.CancelFunc
	done   chan struct{}
	mu     sync.Mutex
	at     map[uint64]time.Time
}

func (env *serveEnv) startWatch(session string) error {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, env.ts.URL+"/v1/sessions/"+session+"/watch?format=binary", nil)
	if err != nil {
		cancel()
		return err
	}
	resp, err := env.client.Do(req)
	if err != nil {
		cancel()
		return err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return fmt.Errorf("watch: status %d", resp.StatusCode)
	}
	w := &watcher{cancel: cancel, done: make(chan struct{}), at: map[uint64]time.Time{}}
	sc := planarcert.NewWireScanner(resp.Body)
	if msg, err := sc.Next(); err != nil || msg.Hello == nil {
		resp.Body.Close()
		cancel()
		return fmt.Errorf("watch: no hello frame (err %v)", err)
	}
	go func() {
		defer close(w.done)
		defer resp.Body.Close()
		for {
			msg, err := sc.Next()
			if err != nil {
				return
			}
			if msg.Event != nil {
				now := time.Now()
				w.mu.Lock()
				w.at[msg.Event.Version] = now
				w.mu.Unlock()
			}
		}
	}()
	env.watch = w
	return nil
}

// waitFor waits until version has arrived or the timeout passes.
func (w *watcher) waitFor(version uint64, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		w.mu.Lock()
		_, ok := w.at[version]
		w.mu.Unlock()
		if ok {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// stop ends the subscription and waits for its reader to exit.
func (w *watcher) stop() {
	w.cancel()
	<-w.done
}

// serveBatch is one acked batch as the client saw it.
type serveBatch struct {
	rt, exec time.Duration
	acked    time.Time
	rep      *planarcert.SessionReport
}

// send posts one batch and decodes its ack.
func (env *serveEnv) send(s *serveSession, ups []planarcert.Update) (serveBatch, error) {
	body, ct, err := s.body(ups)
	if err != nil {
		return serveBatch{}, err
	}
	t0 := time.Now()
	raw, err := env.do(http.MethodPost, "/v1/sessions/"+s.name+"/updates", ct, body, http.StatusOK)
	b := serveBatch{rt: time.Since(t0), acked: time.Now()}
	if err != nil {
		return b, err
	}
	if s.binary {
		ack, err := planarcert.DecodeBatchAckFrame(raw)
		if err != nil {
			return b, fmt.Errorf("decode ack frame: %w", err)
		}
		b.exec, b.rep = ack.Elapsed, ack.Report
	} else {
		var ack server.UpdatesResponse
		if err := json.Unmarshal(raw, &ack); err != nil {
			return b, fmt.Errorf("decode ack: %w", err)
		}
		b.exec, b.rep = time.Duration(ack.ElapsedSeconds*float64(time.Second)), ack.Report
	}
	if b.rep == nil {
		return b, fmt.Errorf("ack without a report")
	}
	s.batches = append(s.batches, ups)
	s.bodies = append(s.bodies, body)
	return b, nil
}

// runServe drives an in-process durable planarcertd: one closed-loop
// client alternates batches between a binary-frame session and an
// NDJSON session while one binary watch subscriber follows the first.
// Its operation is one batch's client round trip.
func runServe(r *runner) (*result, error) {
	var env *serveEnv
	setupN := 0
	setupS, err := setup(21, func() error {
		if env != nil {
			env.close()
		}
		setupN++
		e, err := startServe(filepath.Join(r.workDir, "serve-"+strconv.Itoa(setupN)), r.seed)
		env = e
		return err
	})
	if err != nil {
		return nil, err
	}
	defer env.close()
	if err := env.startWatch("bin"); err != nil {
		return nil, err
	}

	res := newResult()
	var (
		rt, exec, overhead, traced, untraced []float64
		lags                                 []float64
		dyn                                  = newDynStats()
		binAcked                             []serveBatch
	)
	deadline := time.Now().Add(r.dur)
	for bi := 0; time.Now().Before(deadline); bi++ {
		s := env.sessions[bi%2]
		ups := s.next()
		if err := applyToMirror(s.mirror, ups); err != nil {
			return nil, err
		}
		sp := -1
		if r.tr != nil && bi/2%2 == 1 { // both sessions get traced and untraced batches
			sp = r.tr.begin("http.POST.updates", bi, -1, len(ups))
		}
		b, err := env.send(s, ups)
		if sp >= 0 {
			r.tr.end(sp)
		}
		res.attempted++
		if err != nil {
			res.fail("%s batch %d: %v", s.name, bi, err)
			continue
		}
		if !b.rep.Accepted {
			res.fail("%s batch %d (%s) not accepted", s.name, bi, b.rep.Mode)
		}
		d := ms(b.rt)
		rt = append(rt, d)
		exec = append(exec, ms(b.exec))
		overhead = append(overhead, ms(b.rt-b.exec))
		dyn.observe(b.rep, ms(b.exec))
		if sp >= 0 {
			traced = append(traced, d)
		} else {
			untraced = append(untraced, d)
		}
		if s.binary {
			binAcked = append(binAcked, b)
		}
	}
	if len(rt) == 0 {
		return nil, fmt.Errorf("no batch completed")
	}

	for _, s := range env.sessions {
		raw, err := env.do(http.MethodGet, "/v1/sessions/"+s.name+"/graph", "", nil, http.StatusOK)
		var ge server.GraphExport
		if err == nil {
			err = json.Unmarshal(raw, &ge)
		}
		hi, lo := s.mirror.Fingerprint()
		res.check(err == nil && ge.Fingerprint == fmt.Sprintf("%016x%016x", hi, lo),
			"session %s graph differs from the client mirror (err %v)", s.name, err)
	}

	res.reportOps(setupS, rt)
	if r.tr == nil {
		return res, nil
	}

	// Broadcast: each acked binary batch's event, matched by version.
	missed := 0
	if n := len(binAcked); n > 0 {
		env.watch.waitFor(binAcked[n-1].rep.Generation, 2*time.Second)
	}
	env.watch.mu.Lock()
	for _, b := range binAcked {
		at, ok := env.watch.at[b.rep.Generation]
		if !ok {
			missed++
			continue
		}
		lags = append(lags, ms(at.Sub(b.acked)))
	}
	env.watch.mu.Unlock()
	res.layer["broadcast.lag_p50_ms"] = metric{median(lags), "ms"}
	res.layer["broadcast.missed_events"] = metric{float64(missed), "count"}

	dyn.report(res)
	res.layer["server.exec_p50_ms"] = metric{median(exec), "ms"}
	res.layer["server.exec_tail_ms"] = metric{tail("serve server.exec_tail_ms", exec, serveTail), "ms"}
	res.layer["server.overhead_p50_ms"] = metric{median(overhead), "ms"}
	res.layer["server.overhead_tail_ms"] = metric{tail("serve server.overhead_tail_ms", overhead, serveTail), "ms"}
	res.layer["batch.tail_ms"] = metric{tail("serve batch.tail_ms", rt, serveTail), "ms"}
	res.layer["batch.samples"] = metric{float64(len(rt)), "count"}
	res.layer["trace.overhead_frac"] = metric{overheadFrac(traced, untraced), "frac"}
	if err := serverLayers(env, res); err != nil {
		return nil, err
	}
	if err := codecLayers(r, env, res); err != nil {
		return nil, err
	}
	return res, nil
}

// serverLayers reads the admission wait from /metrics and the batch
// phase decomposition from /debug/traces.
func serverLayers(env *serveEnv, res *result) error {
	raw, err := env.do(http.MethodGet, "/metrics", "", nil, http.StatusOK)
	if err != nil {
		return err
	}
	p50, err := histogramP50(string(raw), "planarcertd_admit_wait_seconds")
	if err != nil {
		return err
	}
	res.layer["qos.admit_wait_p50_ms"] = metric{p50 * 1e3, "ms"}

	raw, err = env.do(http.MethodGet, "/debug/traces", "", nil, http.StatusOK)
	if err != nil {
		return err
	}
	var page struct {
		Traces []struct {
			Root *traceSpan `json:"root"`
		} `json:"traces"`
	}
	if err := json.Unmarshal(raw, &page); err != nil {
		return fmt.Errorf("decode /debug/traces: %w", err)
	}
	phases := map[string]int64{}
	var total int64
	for _, t := range page.Traces {
		if t.Root == nil {
			continue
		}
		total += t.Root.DurationNanos
		for name, d := range t.Root.phases() {
			phases[name] += d
		}
	}
	if total == 0 {
		return fmt.Errorf("/debug/traces returned no batch traces")
	}
	for _, p := range []string{obs.PhaseAdmit, obs.PhaseQueueWait, obs.PhaseBudgetWait, obs.PhaseProve,
		obs.PhaseVerify, obs.PhasePersist, obs.PhaseOther} {
		res.layer["phase."+p+"_frac"] = metric{float64(phases[p]) / float64(total), "frac"}
	}
	res.layer["phase.traces"] = metric{float64(len(page.Traces)), "count"}
	return nil
}

// traceSpan is a span as /debug/traces serves it.
type traceSpan struct {
	Name          string       `json:"name"`
	DurationNanos int64        `json:"duration_nanos"`
	Children      []*traceSpan `json:"children"`
}

// phases splits a batch trace into obs's service phases by the same
// rule as obs.Phases, which works on live spans only.
func (root *traceSpan) phases() map[string]int64 {
	out := map[string]int64{}
	var walk func(s *traceSpan)
	walk = func(s *traceSpan) {
		for _, c := range s.Children {
			switch c.Name {
			case obs.SpanAdmit, obs.SpanQueueWait, obs.SpanProve, obs.SpanPersist, obs.SpanBudgetWait:
				out[c.Name] += c.DurationNanos
			case obs.SpanSweep:
				var bw int64
				for _, g := range c.Children {
					if g.Name == obs.SpanBudgetWait {
						bw += g.DurationNanos
					}
				}
				out[obs.PhaseBudgetWait] += bw
				out[obs.PhaseVerify] += c.DurationNanos - bw
			default:
				walk(c)
			}
		}
	}
	walk(root)
	var sum int64
	for _, d := range out {
		sum += d
	}
	out[obs.PhaseOther] = max(0, root.DurationNanos-sum)
	return out
}

// histogramP50 estimates the median of a Prometheus histogram by linear
// interpolation inside the bucket that holds it.
func histogramP50(exposition, name string) (float64, error) {
	type bucket struct{ le, cum float64 }
	var buckets []bucket
	for _, line := range strings.Split(exposition, "\n") {
		rest, ok := strings.CutPrefix(line, name+`_bucket{le="`)
		if !ok {
			continue
		}
		leStr, countStr, ok := strings.Cut(rest, `"} `)
		if !ok {
			return 0, fmt.Errorf("bad bucket line %q", line)
		}
		le, err := strconv.ParseFloat(strings.Replace(leStr, "+Inf", "Inf", 1), 64)
		if err != nil {
			return 0, err
		}
		cum, err := strconv.ParseFloat(countStr, 64)
		if err != nil {
			return 0, err
		}
		buckets = append(buckets, bucket{le, cum})
	}
	if len(buckets) == 0 || buckets[len(buckets)-1].cum == 0 {
		return 0, fmt.Errorf("no %s observations", name)
	}
	half := buckets[len(buckets)-1].cum / 2
	lo, prev := 0.0, 0.0
	for _, b := range buckets {
		if b.cum >= half {
			if b.le > 1e300 {
				return lo, nil
			}
			return lo + (b.le-lo)*(half-prev)/(b.cum-prev), nil
		}
		lo, prev = b.le, b.cum
	}
	return lo, nil
}

// codecLayers replays what the client sent through the wire codec, the
// NDJSON line decoder and a WAL store, one layer at a time.
func codecLayers(r *runner, env *serveEnv, res *result) error {
	bin, js := env.sessions[0], env.sessions[1]

	encode, err := repeatTimed(len(bin.batches), func() error {
		for _, ups := range bin.batches {
			if _, err := planarcert.EncodeUpdatesFrame("apply", ups); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	res.layer["wire.encode_us_per_batch"] = metric{encode, "us"}

	sc := wire.GetScratch()
	defer sc.Release()
	decode, err := repeatTimed(len(bin.bodies), func() error {
		for _, frame := range bin.bodies {
			_, payload, _, err := wire.ParseFrame(frame)
			if err != nil {
				return err
			}
			if _, _, err := wire.DecodeUpdateBatch(payload, sc); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	res.layer["wire.decode_us_per_batch"] = metric{decode, "us"}

	ndjson, err := repeatTimed(len(js.bodies), func() error {
		for _, body := range js.bodies {
			lines := bufio.NewScanner(bytes.NewReader(body))
			for lines.Scan() {
				var ul server.UpdateLine
				if err := json.Unmarshal(lines.Bytes(), &ul); err != nil {
					return err
				}
				if _, err := ul.Update(); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	res.layer["server.ndjson_decode_us_per_batch"] = metric{ndjson, "us"}

	// WAL: the first acked batches of both sessions, appended with
	// fsync on every batch as the daemon does by default.
	dir := filepath.Join(r.workDir, "wal-replay")
	st, _, err := wal.OpenStore(dir, wal.SyncAlways)
	if err != nil {
		return err
	}
	logPath := filepath.Join(dir, "wal.log")
	before, err := os.Stat(logPath)
	if err != nil {
		st.Close()
		return err
	}
	var batches [][]planarcert.Update
	for i := 0; len(batches) < walReplayN && (i < len(bin.batches) || i < len(js.batches)); i++ {
		for _, s := range []*serveSession{bin, js} {
			if i < len(s.batches) {
				batches = append(batches, s.batches[i])
			}
		}
	}
	t0 := time.Now()
	for i, ups := range batches {
		if err := st.AppendBatch(uint64(i+1), walUpdates(ups)); err != nil {
			st.Close()
			return err
		}
	}
	appendUs := float64(time.Since(t0).Microseconds()) / float64(len(batches))
	if err := st.Close(); err != nil {
		return err
	}
	after, err := os.Stat(logPath)
	if err != nil {
		return err
	}
	res.layer["wal.append_us_per_batch"] = metric{appendUs, "us"}
	res.layer["wal.bytes_per_batch"] = metric{float64(after.Size()-before.Size()) / float64(len(batches)), "bytes"}
	return nil
}

// repeatTimed runs pass, which handles batches batches, until at least
// 50ms have gone by and returns the mean microseconds per batch.
func repeatTimed(batches int, pass func() error) (float64, error) {
	if batches == 0 {
		return 0, errors.New("no batches to replay")
	}
	passes := 0
	t0 := time.Now()
	for passes == 0 || time.Since(t0) < 50*time.Millisecond {
		if err := pass(); err != nil {
			return 0, err
		}
		passes++
	}
	return float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(passes*batches), nil
}

// walUpdates converts session updates to their WAL record form.
func walUpdates(ups []planarcert.Update) []wal.Update {
	out := make([]wal.Update, len(ups))
	for i, u := range ups {
		op := wal.OpAddEdge
		switch u.Op {
		case planarcert.OpRemoveEdge:
			op = wal.OpRemoveEdge
		case planarcert.OpAddNode:
			op = wal.OpAddNode
		}
		out[i] = wal.Update{Op: op, A: int64(u.A), B: int64(u.B)}
	}
	return out
}
