package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/uteda/gmap/internal/fault"
	"github.com/uteda/gmap/internal/obs"
	"github.com/uteda/gmap/internal/obs/fleet"
	obstrace "github.com/uteda/gmap/internal/obs/trace"
)

// TestAPIErrMapping: the worker maps coordinator error bodies back onto
// protocol sentinels through the wire code alone. A 409 without a code
// is a plain error — not a sentinel, not retryable — whatever its
// message says, and a 5xx is transient.
func TestAPIErrMapping(t *testing.T) {
	// wire renders err exactly as the coordinator's handlers do.
	wire := func(err error) (int, []byte) {
		rec := httptest.NewRecorder()
		writeErr(rec, statusOf(err), err)
		return rec.Code, rec.Body.Bytes()
	}
	var cl client
	for _, sentinel := range []error{ErrLeaseGone, ErrStaleEpoch, ErrDivergent, ErrForeignKey} {
		status, body := wire(fmt.Errorf("%w: detail", sentinel))
		err := cl.apiErr(status, body)
		if !errors.Is(err, sentinel) {
			t.Errorf("%d %s: got %v, want %v", status, body, err, sentinel)
		}
		if retryable(err) {
			t.Errorf("%v: protocol rejection marked retryable", err)
		}
	}

	// The message names an epoch and divergence, but without a code it
	// maps to nothing.
	err := cl.apiErr(http.StatusConflict, []byte(`{"error":"stale epoch: divergent payload"}`))
	for _, sentinel := range []error{ErrStaleEpoch, ErrDivergent, ErrForeignKey, ErrLeaseGone} {
		if errors.Is(err, sentinel) {
			t.Errorf("code-less 409 mapped to %v: %v", sentinel, err)
		}
	}
	if retryable(err) {
		t.Errorf("code-less 409 marked retryable: %v", err)
	}

	for _, status := range []int{http.StatusInternalServerError, http.StatusServiceUnavailable} {
		err := cl.apiErr(status, []byte(`{"error":"no sweep is being coordinated","code":"unavailable"}`))
		if !fault.IsTransient(err) || !retryable(err) {
			t.Errorf("%d: got %v, want a transient, retryable error", status, err)
		}
	}
}

// TestHeartbeatPushesListWorkerLive: a worker whose lease outlasts
// several heartbeats is listed live on /fleet/status before that lease
// ends — pushed, not stale, not final — and the pushes it makes while
// the lease is live carry a registry snapshot but no span log (that
// waits for lease end).
func TestHeartbeatPushesListWorkerLive(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	// One part is one lease for the whole sweep; a 600ms TTL heartbeats
	// every 200ms, many times over the sweep.
	const ttl = 600 * time.Millisecond
	c, err := NewCoordinator(CoordinatorOptions{
		Spec:     quickSpec("fig6a"),
		Parts:    1,
		LeaseTTL: ttl,
		Ledger:   filepath.Join(t.TempDir(), "ledger.jsonl"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Record every push that lands while the first lease is still live
	// and unexpired: those can only be heartbeat pushes.
	fh := fleet.New(fleet.Options{Stale: ttl}).Handler()
	var mu sync.Mutex
	var midLease []fleet.PushRequest
	c.SetFleet(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/fleet/push" {
			body, _ := io.ReadAll(r.Body)
			r.Body = io.NopCloser(bytes.NewReader(body))
			st := c.StatusSnapshot()
			var pr fleet.PushRequest
			if json.Unmarshal(body, &pr) == nil && st.Granted == 1 && st.LiveLeases == 1 && st.Expired == 0 {
				mu.Lock()
				midLease = append(midLease, pr)
				mu.Unlock()
			}
		}
		fh.ServeHTTP(w, r)
	}))
	srv, err := c.Serve(ctx, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()

	done := make(chan error, 1)
	go func() {
		done <- RunWorker(ctx, WorkerOptions{
			Coordinator: srv.URL(),
			Name:        "w0",
			Workers:     1,
			Obs:         obs.New(),
			Trace:       obstrace.New(),
			Logf:        t.Logf,
		})
	}()

	// Poll the fleet view until w0 is listed. Reading the coordinator
	// after the fetch proves the lease was still open when it was served.
	var live fleet.WorkerHealth
	for live.Name == "" {
		var fs fleet.FleetStatus
		if err := json.Unmarshal([]byte(fetch(t, srv.URL()+"/fleet/status")), &fs); err != nil {
			t.Fatal(err)
		}
		if st := c.StatusSnapshot(); st.DoneParts != 0 || st.Expired != 0 {
			t.Fatalf("first lease ended before /fleet/status listed the worker: %+v", fs.Workers)
		}
		for _, w := range fs.Workers {
			if w.Name == "w0" {
				live = w
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	if live.Pushes == 0 || live.Stale || live.Final {
		t.Errorf("mid-lease fleet entry = %+v, want pushed, live and not final", live)
	}

	if err := <-done; err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(midLease) == 0 {
		t.Fatal("no push landed while the lease was live")
	}
	for i, pr := range midLease {
		if pr.Final || pr.Snapshot == nil || pr.TraceJSONL != "" {
			t.Errorf("heartbeat push %d: final=%v snapshot=%v span log %d bytes; want a snapshot and no span log",
				i, pr.Final, pr.Snapshot != nil, len(pr.TraceJSONL))
		}
	}
}
