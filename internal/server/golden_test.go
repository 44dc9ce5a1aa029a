package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"io"
	"net/http"
	"regexp"
	"strings"
	"testing"

	planarcert "github.com/planarcert/planarcert"
	"github.com/planarcert/planarcert/internal/wire"
)

// The golden fixtures below pin the exact bytes planarcertd puts on the
// wire for one scripted session on a fresh server: the NDJSON and
// binary watch streams, the update/flush response bodies and the error
// envelopes. Like internal/wire's goldenFrames they are FROZEN: if one
// fails after a refactor, the refactor changed the protocol — fix the
// code, never the fixture.
//
// Elapsed time is the one value masked, because it varies from run to
// run: elapsed_seconds in JSON bodies, and the batch-ack frame's elapsed
// nanoseconds, which is pinned after decoding, zeroing that field and
// re-encoding (the encoding is canonical, so every other byte is still
// pinned). Certificate sizes are pinned: session certificates are the
// same in every process.

// goldenGraph is K5 minus the edge {3,4}: planar, and one edge away
// from K5, so the script can flip the session to non-planarity and back.
const goldenGraph = "0 1\n0 2\n0 3\n0 4\n1 2\n1 3\n1 4\n2 3\n2 4\n"

var maskedRE = regexp.MustCompile(`"(elapsed_seconds)":[-+.eE0-9]+`)

// maskJSON replaces the run-dependent JSON values.
func maskJSON(b []byte) string {
	return maskedRE.ReplaceAllString(string(b), `"$1":"<masked>"`)
}

// maskFrame returns the hex of one frame, with the elapsed time of a
// batch-ack payload zeroed.
func maskFrame(t *testing.T, frame []byte) string {
	t.Helper()
	kind, payload, _, err := wire.ParseFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if kind == wire.KindBatchAck {
		ack, err := wire.DecodeBatchAck(payload)
		if err != nil {
			t.Fatal(err)
		}
		ack.ElapsedNanos = 0
		if frame, err = wire.EncodeBatchAck(ack); err != nil {
			t.Fatal(err)
		}
	}
	return hex.EncodeToString(frame)
}

// goldenResponse is the pinned shape of one HTTP exchange.
type goldenResponse struct {
	code   int
	header string // "Name: value" of the one header worth pinning, if any
	body   string
}

// goldenPost POSTs body under contentType and returns the status, the
// Content-Type and the raw body.
func goldenPost(t *testing.T, url, contentType string, body []byte) (int, http.Header, []byte) {
	t.Helper()
	resp := postFrame(t, url, contentType, body)
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, raw
}

// readRawFrame reads one complete frame (header and payload) from r.
func readRawFrame(r io.Reader) ([]byte, error) {
	hdr := make([]byte, wire.HeaderSize)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	frame := append(hdr, make([]byte, binary.LittleEndian.Uint32(hdr[6:10]))...)
	if _, err := io.ReadFull(r, frame[wire.HeaderSize:]); err != nil {
		return nil, err
	}
	return frame, nil
}

var goldenJSONWatch = "" +
	`{"generation":0,"mode":"reprove","active_scheme":"planarity","updates":0,"dirty":5,"verified":5,"full_verify":true,"accepted":true,"verification":{"accepted":true,"max_cert_bits":198,"avg_cert_bits":139.6,"messages":18,"max_msg_bits":198}}` + "\n" +
	`{"generation":1,"mode":"reprove","active_scheme":"planarity","updates":2,"dirty":6,"verified":6,"full_verify":true,"accepted":true,"verification":{"accepted":true,"max_cert_bits":199,"avg_cert_bits":136.5,"messages":20,"max_msg_bits":199},"repair_fallback":"node additions change n in every certificate"}` + "\n" +
	`{"generation":2,"mode":"flip","active_scheme":"non-planarity","updates":1,"dirty":6,"verified":6,"full_verify":true,"accepted":true,"verification":{"accepted":true,"max_cert_bits":89,"avg_cert_bits":87.33333333333333,"messages":22,"max_msg_bits":89},"repair_fallback":"no non-crossing chord attachment under the current embedding"}` + "\n" +
	`{"generation":3,"mode":"cache","active_scheme":"planarity","updates":1,"dirty":0,"verified":2,"full_verify":false,"accepted":true,"verification":{"accepted":true,"max_cert_bits":199,"avg_cert_bits":176,"messages":7,"max_msg_bits":199},"cache_generation":1,"repair_fallback":"witness edge {3,4} removed"}` + "\n"

var goldenBinaryWatch = []string{
	// hello: subscription 1, version 0
	"50435746010403000000a0a5ccfb060000",
	// baseline event, version 0
	"504357460103280000001d1181690000fb932b83937bb32892e0d8c2dcc2e4d2e8f200743b80001918c80c2e666666666662c88c6000",
	// event 1 (reprove)
	"5043574601035600000023a00479060c3ee4cae0e4deecca24b83630b730b934ba3c850783d80358dcdec8ca40c2c8c8d2e8d2dedce640c6d0c2dcceca40dc40d2dc40caeccae4f240c6cae4e8d2ccd2c6c2e8ca06463a0308800000000000b4231c0000",
	// event 2 (flip)
	"50435746010367000000fd880fb50a0a0e333634b809adcdedc5ae0d8c2dcc2e4d2e8f20c3c1ec01bc6e6f206e6f6e2d63726f7373696e672063686f7264206174746163686d656e7420756e646572207468652063757272656e7420656d62656464696e67031eca02aeaaaaaaaaaaa8b61ec80000",
	// event 3 (cache)
	"5043574601034100000033e0ad320b0b0eb1b0b1b432892e0d8c2dcc2e4d2e8f20c00a418ba7769746e6573732065646765207b332c347d2072656d6f76656403231d01980000000000003e4638000",
}

var goldenBatchBodies = []goldenResponse{
	{http.StatusOK, "", `{"queued":2,"pending":0,"report":{"generation":1,"mode":"reprove","active_scheme":"planarity","updates":2,"dirty":6,"verified":6,"full_verify":true,"accepted":true,"verification":{"accepted":true,"max_cert_bits":199,"avg_cert_bits":136.5,"messages":20,"max_msg_bits":199},"repair_fallback":"node additions change n in every certificate"},"elapsed_seconds":"<masked>"}` + "\n"},
	{http.StatusAccepted, "", `{"queued":1,"pending":1}` + "\n"},
	{http.StatusOK, "", `{"queued":0,"pending":0,"report":{"generation":2,"mode":"flip","active_scheme":"non-planarity","updates":1,"dirty":6,"verified":6,"full_verify":true,"accepted":true,"verification":{"accepted":true,"max_cert_bits":89,"avg_cert_bits":87.33333333333333,"messages":22,"max_msg_bits":89},"repair_fallback":"no non-crossing chord attachment under the current embedding"},"elapsed_seconds":"<masked>"}` + "\n"},
}

const goldenBatchAck = "5043574601024300000003b08ba0060010b0eb1b0b1b432892e0d8c2dcc2e4d2e8f20c00a418ba7769746e6573732065646765207b332c347d2072656d6f76656403231d01980000000000003e46380000"

// TestGoldenSessionScript drives the scripted session: a JSON and a
// binary watch attach with ?replay=last, then three batches land — an
// NDJSON apply, an NDJSON queue plus flush that flips the session to
// non-planarity, and a frame apply that flips it back.
func TestGoldenSessionScript(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	doJSON(t, "POST", ts.URL+"/v1/sessions", CreateSessionRequest{
		Name:  "golden",
		Graph: GraphSpec{EdgeList: goldenGraph},
	}, http.StatusCreated, nil)
	base := ts.URL + "/v1/sessions/golden"

	jsonResp, err := http.Get(base + "/watch?replay=last")
	if err != nil {
		t.Fatal(err)
	}
	defer jsonResp.Body.Close()
	binResp, err := http.Get(base + "/watch?format=binary&replay=last")
	if err != nil {
		t.Fatal(err)
	}
	defer binResp.Body.Close()

	var bodies []goldenResponse
	record := func(code int, body []byte) { bodies = append(bodies, goldenResponse{code: code, body: maskJSON(body)}) }
	code, _, raw := goldenPost(t, base+"/updates", "application/x-ndjson",
		[]byte(`{"op":"add_node","a":5}`+"\n"+`{"op":"add_edge","a":4,"b":5}`+"\n"))
	record(code, raw)
	code, _, raw = goldenPost(t, base+"/updates?mode=queue", "application/x-ndjson",
		[]byte(`{"op":"add_edge","a":3,"b":4}`+"\n"))
	record(code, raw)
	code, _, raw = goldenPost(t, base+"/flush", "", nil)
	record(code, raw)
	frame, err := planarcert.EncodeUpdatesFrame("apply", []planarcert.Update{planarcert.EdgeRemove(3, 4)})
	if err != nil {
		t.Fatal(err)
	}
	code, hdr, raw := goldenPost(t, base+"/updates", planarcert.WireContentType, frame)
	if code != http.StatusOK || hdr.Get("Content-Type") != planarcert.WireContentType {
		t.Fatalf("frame apply: status %d, Content-Type %q, body %q", code, hdr.Get("Content-Type"), raw)
	}
	ackHex := maskFrame(t, raw)

	for i, want := range goldenBatchBodies {
		if i >= len(bodies) || bodies[i] != want {
			t.Errorf("batch response %d changed:\n got: %#v\nwant: %#v", i, bodies, goldenBatchBodies)
			break
		}
	}
	if ackHex != goldenBatchAck {
		t.Errorf("batch ack frame changed:\n got: %s\nwant: %s", ackHex, goldenBatchAck)
	}

	// Baseline plus one event per batch on each stream.
	lines := bufio.NewReader(jsonResp.Body)
	var stream strings.Builder
	for i := 0; i < 4; i++ {
		line, err := lines.ReadString('\n')
		if err != nil {
			t.Fatalf("json watch line %d: %v", i, err)
		}
		stream.WriteString(maskJSON([]byte(line)))
	}
	if got := stream.String(); got != goldenJSONWatch {
		t.Errorf("NDJSON watch stream changed:\n got: %q\nwant: %q", got, goldenJSONWatch)
	}
	var frames []string
	for i := 0; i < 5; i++ {
		f, err := readRawFrame(binResp.Body)
		if err != nil {
			t.Fatalf("binary watch frame %d: %v", i, err)
		}
		frames = append(frames, maskFrame(t, f))
	}
	if strings.Join(frames, "\n") != strings.Join(goldenBinaryWatch, "\n") {
		t.Errorf("binary watch stream changed:\n got: %#v\nwant: %#v", frames, goldenBinaryWatch)
	}
}

// TestGoldenErrorEnvelopes pins the status, the Content-Type or
// Accept-Post header and the JSON error body of each batch-path
// failure.
func TestGoldenErrorEnvelopes(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBatchUpdates: 2})
	doJSON(t, "POST", ts.URL+"/v1/sessions", CreateSessionRequest{
		Name:  "golden",
		Graph: GraphSpec{EdgeList: goldenGraph},
	}, http.StatusCreated, nil)
	base := ts.URL + "/v1/sessions/golden"
	threeFrame, err := planarcert.EncodeUpdatesFrame("apply", []planarcert.Update{
		planarcert.NodeAdd(7), planarcert.NodeAdd(8), planarcert.NodeAdd(9),
	})
	if err != nil {
		t.Fatal(err)
	}
	ack999, err := planarcert.EncodeWatchAckFrame(999, 1)
	if err != nil {
		t.Fatal(err)
	}
	ndjson := func(lines ...string) []byte { return []byte(strings.Join(lines, "\n") + "\n") }

	tests := []struct {
		name        string
		url         string
		contentType string
		body        []byte
		header      string // header to pin alongside the body
		want        goldenResponse
	}{
		{"unknown session", ts.URL + "/v1/sessions/ghost/updates", "", ndjson(`{"op":"add_node","a":7}`), "Content-Type",
			goldenResponse{http.StatusNotFound, "Content-Type: application/json", `{"error":"no session \"ghost\""}` + "\n"}},
		{"unknown session flush", ts.URL + "/v1/sessions/ghost/flush", "", nil, "Content-Type",
			goldenResponse{http.StatusNotFound, "Content-Type: application/json", `{"error":"no session \"ghost\""}` + "\n"}},
		{"bad ndjson line", base + "/updates", "application/x-ndjson", ndjson(`{"op":"add_node","a":7}`, `{"op":`), "Content-Type",
			goldenResponse{http.StatusBadRequest, "Content-Type: application/json", `{"error":"line 2: unexpected end of JSON input"}` + "\n"}},
		{"bad ndjson op", base + "/updates", "", ndjson(`{"op":"jump","a":7}`), "Content-Type",
			goldenResponse{http.StatusBadRequest, "Content-Type: application/json", `{"error":"line 1: unknown op \"jump\" (want add_edge, remove_edge or add_node)"}` + "\n"}},
		{"bad mode", base + "/updates?mode=later", "", ndjson(`{"op":"add_node","a":7}`), "Content-Type",
			goldenResponse{http.StatusBadRequest, "Content-Type: application/json", `{"error":"mode must be apply or queue, got \"later\""}` + "\n"}},
		{"bad frame", base + "/updates", planarcert.WireContentType, []byte("not a frame"), "Content-Type",
			goldenResponse{http.StatusBadRequest, "Content-Type: application/json", `{"error":"bad frame: wire: truncated frame"}` + "\n"}},
		{"trailing frame bytes", base + "/updates", planarcert.WireContentType, append(bytes.Clone(threeFrame), 0), "Content-Type",
			goldenResponse{http.StatusBadRequest, "Content-Type: application/json", `{"error":"body must be a single update-batch frame (got kind update_batch, 1 trailing bytes)"}` + "\n"}},
		{"ndjson over MaxBatchUpdates", base + "/updates", "", ndjson(`{"op":"add_node","a":7}`, `{"op":"add_node","a":8}`, `{"op":"add_node","a":9}`), "Content-Type",
			goldenResponse{http.StatusRequestEntityTooLarge, "Content-Type: application/json", `{"error":"batch exceeds 2 updates"}` + "\n"}},
		{"frame over MaxBatchUpdates", base + "/updates", planarcert.WireContentType, threeFrame, "Content-Type",
			goldenResponse{http.StatusRequestEntityTooLarge, "Content-Type: application/json", `{"error":"batch exceeds 2 updates"}` + "\n"}},
		{"unsupported media type", base + "/updates", "text/plain", ndjson(`{"op":"add_node","a":7}`), "Accept-Post",
			goldenResponse{http.StatusUnsupportedMediaType, "Accept-Post: application/x-ndjson, application/json, application/x-planarcert-frame", `{"error":"unsupported Content-Type \"text/plain\" (want one of application/x-ndjson, application/json, application/x-planarcert-frame)"}` + "\n"}},
		{"rejected batch", base + "/updates", "", ndjson(`{"op":"add_edge","a":0,"b":1}`), "Content-Type",
			goldenResponse{http.StatusUnprocessableEntity, "Content-Type: application/json", `{"error":"batch rejected: dynamic: update 0: duplicate edge {0,1}"}` + "\n"}},
		{"ack unknown subscription", base + "/watch/ack", planarcert.WireContentType, ack999, "Content-Type",
			goldenResponse{http.StatusNotFound, "Content-Type: application/json", `{"error":"no subscription 999"}` + "\n"}},
		{"ack body over its 64 KiB cap", base + "/watch/ack", planarcert.WireContentType, make([]byte, 1<<16+1), "Content-Type",
			goldenResponse{http.StatusRequestEntityTooLarge, "Content-Type: application/json", `{"error":"http: request body too large"}` + "\n"}},
		{"ack unsupported media type", base + "/watch/ack", "application/json", ack999, "Accept-Post",
			goldenResponse{http.StatusUnsupportedMediaType, "Accept-Post: application/x-planarcert-frame", `{"error":"unsupported Content-Type \"application/json\" (want application/x-planarcert-frame)"}` + "\n"}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			code, hdr, raw := goldenPost(t, tc.url, tc.contentType, tc.body)
			got := goldenResponse{code: code, header: tc.header + ": " + hdr.Get(tc.header), body: string(raw)}
			if got != tc.want {
				t.Fatalf("error envelope changed:\n got: %#v\nwant: %#v", got, tc.want)
			}
		})
	}

	watches := []struct {
		name string
		url  string
		want goldenResponse
	}{
		{"watch unknown session", ts.URL + "/v1/sessions/ghost/watch",
			goldenResponse{http.StatusNotFound, "", `{"error":"no session \"ghost\""}` + "\n"}},
		{"watch bad format", base + "/watch?format=msgpack",
			goldenResponse{http.StatusBadRequest, "", `{"error":"format must be json or binary, got \"msgpack\""}` + "\n"}},
		{"watch bad subscription", base + "/watch?format=binary&sub=x",
			goldenResponse{http.StatusBadRequest, "", `{"error":"bad subscription \"x\""}` + "\n"}},
	}
	for _, tc := range watches {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Get(tc.url)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			raw, _ := io.ReadAll(resp.Body)
			if got := (goldenResponse{code: resp.StatusCode, body: string(raw)}); got != tc.want {
				t.Fatalf("error envelope changed:\n got: %#v\nwant: %#v", got, tc.want)
			}
		})
	}
}
