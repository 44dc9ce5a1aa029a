package server

import (
	"errors"
	"io"
	"net/http"
	"strings"
	"sync"

	planarcert "github.com/planarcert/planarcert"
	"github.com/planarcert/planarcert/internal/wire"
)

// acceptPostTypes is the Accept-Post hint of a 415 from POST .../updates:
// the NDJSON media types (a request with no Content-Type is NDJSON too,
// which keeps bare curl clients working) and the binary frame type.
const acceptPostTypes = "application/x-ndjson, application/json, " + wire.ContentType

// contentTypeBase returns the media type without parameters, lowercased
// ("application/json; charset=utf-8" -> "application/json").
func contentTypeBase(ct string) string {
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	return strings.ToLower(strings.TrimSpace(ct))
}

// rejectMediaType answers 415 with an Accept-Post hint listing the
// media types POST .../updates understands.
func (s *Server) rejectMediaType(w http.ResponseWriter, r *http.Request) {
	s.met.unsupportedMedia.Add(1)
	w.Header().Set("Accept-Post", acceptPostTypes)
	writeError(w, http.StatusUnsupportedMediaType,
		"unsupported Content-Type %q (want one of %s)", r.Header.Get("Content-Type"), acceptPostTypes)
}

// wireScratch is the pooled per-request arena of the binary updates
// path: the body buffer, the frame decode scratch, and the converted
// planarcert.Update slab are all reused, so a steady-state binary batch
// costs O(1) allocations end to end.
type wireScratch struct {
	body []byte
	ws   *wire.Scratch
	ups  []planarcert.Update
}

var wireScratchPool = sync.Pool{New: func() interface{} {
	return &wireScratch{ws: wire.GetScratch()}
}}

// readAllInto reads r to EOF into buf's capacity, growing it only when
// needed (io.ReadAll without the per-request allocation).
func readAllInto(buf []byte, r io.Reader) ([]byte, error) {
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// decodeFrame reads a frame updates body: one update-batch frame, whose
// mode field replaces the ?mode= query parameter, decoded zero-copy into
// sc. Errors keep the JSON envelope. On failure it has written the error
// response and ok is false.
func (s *Server) decodeFrame(w http.ResponseWriter, r *http.Request, sc *wireScratch) (updates []planarcert.Update, queue, ok bool) {
	var err error
	sc.body, err = readAllInto(sc.body, http.MaxBytesReader(w, r.Body, 64<<20))
	if err != nil {
		bodyError(w, err)
		return nil, false, false
	}
	kind, payload, n, err := wire.ParseFrame(sc.body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad frame: %v", err)
		return nil, false, false
	}
	if kind != wire.KindUpdateBatch || n != len(sc.body) {
		writeError(w, http.StatusBadRequest,
			"body must be a single update-batch frame (got kind %s, %d trailing bytes)", kind, len(sc.body)-n)
		return nil, false, false
	}
	mode, wups, err := wire.DecodeUpdateBatch(payload, sc.ws)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad frame: %v", err)
		return nil, false, false
	}
	if len(wups) > s.cfg.MaxBatchUpdates {
		writeError(w, http.StatusRequestEntityTooLarge, "batch exceeds %d updates", s.cfg.MaxBatchUpdates)
		return nil, false, false
	}
	if cap(sc.ups) < len(wups) {
		sc.ups = make([]planarcert.Update, len(wups))
	}
	updates = sc.ups[:len(wups)]
	for i, u := range wups {
		switch u.Op {
		case wire.OpAddEdge:
			updates[i] = planarcert.EdgeAdd(planarcert.NodeID(u.A), planarcert.NodeID(u.B))
		case wire.OpRemoveEdge:
			updates[i] = planarcert.EdgeRemove(planarcert.NodeID(u.A), planarcert.NodeID(u.B))
		case wire.OpAddNode:
			updates[i] = planarcert.NodeAdd(planarcert.NodeID(u.A))
		}
	}
	s.met.wireBatches.Add(1)
	return updates, mode == wire.ModeQueue, true
}

// bodyError answers a failed request-body read: 413 past the body's
// size cap, 400 otherwise.
func bodyError(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, "%v", err)
		return
	}
	writeError(w, http.StatusBadRequest, "reading body: %v", err)
}

// handleWatchAck advances (ack) or rewinds (nack) a binary watch
// subscription's replay cursor. The body is a single ack or nack frame
// with Content-Type planarcert.WireContentType.
func (s *Server) handleWatchAck(w http.ResponseWriter, r *http.Request) {
	ms := s.lookup(r.PathValue("name"))
	if ms == nil {
		writeError(w, http.StatusNotFound, "no session %q", r.PathValue("name"))
		return
	}
	if ct := contentTypeBase(r.Header.Get("Content-Type")); ct != wire.ContentType {
		s.met.unsupportedMedia.Add(1)
		w.Header().Set("Accept-Post", wire.ContentType)
		writeError(w, http.StatusUnsupportedMediaType,
			"unsupported Content-Type %q (want %s)", r.Header.Get("Content-Type"), wire.ContentType)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<16))
	if err != nil {
		bodyError(w, err)
		return
	}
	kind, payload, n, err := wire.ParseFrame(body)
	if err != nil || n != len(body) {
		writeError(w, http.StatusBadRequest, "body must be a single ack or nack frame")
		return
	}
	switch kind {
	case wire.KindAck:
		sub, version, err := wire.DecodeAck(payload)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad ack frame: %v", err)
			return
		}
		if !ms.ack(sub, version) {
			writeError(w, http.StatusNotFound, "no subscription %d", sub)
			return
		}
		s.met.watchAcks.Add(1)
	case wire.KindNack:
		// The reason is for the client's own logs: the server keeps only
		// the nack count.
		sub, version, _, err := wire.DecodeNack(payload)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad nack frame: %v", err)
			return
		}
		if !ms.nack(sub, version) {
			writeError(w, http.StatusNotFound, "no subscription %d", sub)
			return
		}
		s.met.watchNacks.Add(1)
	default:
		writeError(w, http.StatusBadRequest, "body must be an ack or nack frame, got %s", kind)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}
