package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"

	planarcert "github.com/planarcert/planarcert"
)

// TestEmptyFlushReplaysVersionOnce pins the ring's distinct-version
// invariant: an empty flush re-reports the current version, and a
// resume from just before that version must replay it exactly once.
func TestEmptyFlushReplaysVersionOnce(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	base := newWireSession(t, ts.URL, "emptyflush")

	sc, closeWatch := binaryWatch(t, base+"/watch?format=binary")
	msg, err := sc.Next()
	if err != nil || msg.Hello == nil {
		t.Fatalf("hello: %+v, %v", msg, err)
	}
	sub, acked := msg.Hello.Subscription, msg.Hello.Version
	closeWatch()

	applyOne(t, base, planarcert.EdgeAdd(0, 2)) // version acked+1
	doJSON(t, "POST", base+"/flush", nil, http.StatusOK, nil)

	sc, closeWatch = binaryWatch(t, fmt.Sprintf("%s/watch?format=binary&sub=%d", base, sub))
	defer closeWatch()
	msg, err = sc.Next()
	if err != nil || msg.Hello == nil || msg.Hello.Reset || msg.Hello.ResumeFrom != acked {
		t.Fatalf("resume hello: %+v, %v", msg, err)
	}
	applyOne(t, base, planarcert.EdgeAdd(1, 3)) // version acked+2, delivered live
	for _, want := range []uint64{acked + 1, acked + 2} {
		msg, err = sc.Next()
		if err != nil || msg.Event == nil {
			t.Fatalf("event: %+v, %v", msg, err)
		}
		if msg.Event.Version != want {
			t.Fatalf("event version %d, want %d (a version replayed twice?)", msg.Event.Version, want)
		}
	}
}

// TestWatchAttachesDuringReprove holds the session lock, as a long
// re-prove does, and checks that every kind of watch still attaches:
// each gets its headers and its first message within a second. JSON
// watches must not mint subscriptions.
func TestWatchAttachesDuringReprove(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	base := newWireSession(t, ts.URL, "locked")
	sc, closeWatch := binaryWatch(t, base+"/watch?format=binary")
	msg, err := sc.Next()
	if err != nil || msg.Hello == nil {
		t.Fatalf("hello: %+v, %v", msg, err)
	}
	sub := msg.Hello.Subscription
	closeWatch()

	ms := srv.lookup("locked")
	ms.mu.Lock()
	defer ms.mu.Unlock()

	tests := []struct {
		name   string
		query  string
		binary bool
	}{
		{"JSON replay=last", "?replay=last", false},
		{"fresh binary", "?format=binary", true},
		{"binary resume", fmt.Sprintf("?format=binary&sub=%d", sub), true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, "GET", base+"/watch"+tc.query, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatalf("no headers within 1s: %v", err)
			}
			defer resp.Body.Close()
			if tc.binary {
				msg, err := planarcert.NewWireScanner(resp.Body).Next()
				if err != nil || msg.Hello == nil {
					t.Fatalf("no hello within 1s: %+v, %v", msg, err)
				}
				return
			}
			line, err := bufio.NewReader(resp.Body).ReadBytes('\n')
			if err != nil {
				t.Fatalf("no baseline within 1s: %v", err)
			}
			var rep planarcert.SessionReport
			if err := json.Unmarshal(line, &rep); err != nil || rep.Generation != 0 {
				t.Fatalf("baseline %q: %v", line, err)
			}
		})
	}

	ms.watchMu.Lock()
	subs := len(ms.subs)
	ms.watchMu.Unlock()
	if subs != 2 {
		t.Fatalf("%d subscriptions, want 2 (JSON watches must mint none)", subs)
	}
}
