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
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
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

// TestWaitingWorkerStaysLive: a worker that waits longer than one lease
// TTL, because every part is leased, stays live on /fleet/status. Wait
// grants carry the TTL, and a waiting worker pushes a snapshot — no span
// log — at most once per TTL/3.
func TestWaitingWorkerStaysLive(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	const ttl = time.Second
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
	fh := fleet.New(fleet.Options{Stale: ttl}).Handler()
	var mu sync.Mutex
	var pushes []fleet.PushRequest
	c.SetFleet(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/fleet/push" {
			body, _ := io.ReadAll(r.Body)
			r.Body = io.NopCloser(bytes.NewReader(body))
			var pr fleet.PushRequest
			if json.Unmarshal(body, &pr) == nil {
				mu.Lock()
				pushes = append(pushes, pr)
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

	// Hold the only part, heartbeating it, so the worker can only wait.
	g, err := c.Lease("holder")
	if err != nil || g.Status != GrantLease {
		t.Fatalf("holder lease: %+v, %v", g, err)
	}
	holdCtx, release := context.WithCancel(ctx)
	defer release()
	go func() {
		tick := time.NewTicker(ttl / 4)
		defer tick.Stop()
		for {
			select {
			case <-holdCtx.Done():
				return
			case <-tick.C:
				_ = c.Heartbeat(g.Lease, g.Epoch)
			}
		}
	}()

	wctx, stop := context.WithCancel(ctx)
	done := make(chan error, 1)
	go func() {
		done <- RunWorker(wctx, WorkerOptions{Coordinator: srv.URL(), Name: "w0", Workers: 1, Obs: obs.New(), Logf: t.Logf})
	}()
	time.Sleep(5 * ttl / 2)

	var fs fleet.FleetStatus
	if err := json.Unmarshal([]byte(fetch(t, srv.URL()+"/fleet/status")), &fs); err != nil {
		t.Fatal(err)
	}
	var w0 *fleet.WorkerHealth
	for i := range fs.Workers {
		if fs.Workers[i].Name == "w0" {
			w0 = &fs.Workers[i]
		}
	}
	if w0 == nil || w0.Stale || w0.Final || w0.Pushes < 2 {
		t.Errorf("after %v of waiting, /fleet/status lists w0 as %+v; want live with pushes", 5*ttl/2, w0)
	}
	if st := c.StatusSnapshot(); st.Granted != 1 {
		t.Errorf("granted %d leases; the worker should have waited throughout", st.Granted)
	}
	stop()
	if err := <-done; err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("worker: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, pr := range pushes {
		if !pr.Final && (pr.Snapshot == nil || pr.TraceJSONL != "") {
			t.Errorf("wait push %d: snapshot=%v span log %d bytes; want a snapshot and no span log",
				i, pr.Snapshot != nil, len(pr.TraceJSONL))
		}
	}
}

// TestLeaseRunsOnlySweeps: a lease of an "all" sweep runs only the
// experiments with sweep jobs. Table 1 has none, yet profiles ten
// benchmarks whatever the selection, so a lease with no keys left must
// allocate next to nothing.
func TestLeaseRunsOnlySweeps(t *testing.T) {
	var leases atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("POST /dist/v1/lease", func(w http.ResponseWriter, r *http.Request) {
		if leases.Add(1) == 1 {
			fmt.Fprint(w, `{"status":"lease","lease":"lease-1-0001","epoch":1,"parts":1,"ttl_ns":60000000000,`+
				`"spec":{"kind":"sweep","seed":1,"scale_factor":4,"scale":1,"cores":4,"experiment":"all","benchmarks":["nn"]}}`)
			return
		}
		fmt.Fprint(w, `{"status":"done","epoch":1}`)
	})
	mux.HandleFunc("POST /dist/v1/complete", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"status":"ok"}`)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := RunWorker(context.Background(), WorkerOptions{Coordinator: srv.URL, Name: "w0", Workers: 1}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if mb := (after.TotalAlloc - before.TotalAlloc) >> 20; mb > 32 {
		t.Errorf("a lease with no keys allocated %d MB: it ran more than the sweeps", mb)
	}
	if n := leases.Load(); n != 2 {
		t.Errorf("%d lease requests, want 2 (a lease, then done)", n)
	}
}

// TestDeposedCoordinatorLeaseBudget: a worker whose coordinator was
// deposed, with no successor at its address, retries its lease request
// with backoff within its retry budget — one request plus three
// retries — and then exits with an error naming the deposed endpoint,
// instead of asking again at once until its context ends.
func TestDeposedCoordinatorLeaseBudget(t *testing.T) {
	ledger := filepath.Join(t.TempDir(), "ledger.jsonl")
	c1, _, _ := syntheticCoordinator(t, 8, CoordinatorOptions{Parts: 2, Ledger: ledger})
	defer c1.Close()
	c2, _, _ := syntheticCoordinator(t, 8, CoordinatorOptions{Parts: 2, Ledger: ledger})
	defer c2.Close()

	var leases atomic.Int32
	h := c1.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/dist/v1/lease" {
			leases.Add(1)
		}
		h.ServeHTTP(w, r)
	}))
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	err := RunWorker(ctx, WorkerOptions{Coordinator: srv.URL, Name: "w0", Retries: 3, RetryBackoff: time.Millisecond})
	if err == nil || ctx.Err() != nil || !strings.Contains(err.Error(), srv.URL) {
		t.Errorf("worker returned %v (context: %v); want an error naming the deposed coordinator %s before the deadline",
			err, ctx.Err(), srv.URL)
	}
	if n := leases.Load(); n > 4 {
		t.Errorf("%d lease requests to a deposed coordinator; a budget of 3 retries allows 4", n)
	}
}

// TestWorkerEndpoint: a worker resolves one coordinator address, the
// addr file's content while the file is readable and names one,
// otherwise Coordinator.
func TestWorkerEndpoint(t *testing.T) {
	dir := t.TempDir()
	file := func(name, content string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	for _, tc := range []struct {
		name string
		o    WorkerOptions
		want string
	}{
		{"coordinator", WorkerOptions{Coordinator: "http://10.0.0.1:9500/"}, "http://10.0.0.1:9500"},
		{"host:port", WorkerOptions{Coordinator: "10.0.0.1:9500"}, "http://10.0.0.1:9500"},
		{"addr file wins", WorkerOptions{Coordinator: "http://10.0.0.1:9500", AddrFile: file("a", "127.0.0.1:9501\n")}, "http://127.0.0.1:9501"},
		{"missing addr file", WorkerOptions{Coordinator: "http://10.0.0.1:9500", AddrFile: filepath.Join(dir, "none")}, "http://10.0.0.1:9500"},
		{"empty addr file", WorkerOptions{Coordinator: "http://10.0.0.1:9500", AddrFile: file("e", "\n")}, "http://10.0.0.1:9500"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := newWorker(tc.o, nil).endpoint(); got != tc.want {
				t.Errorf("endpoint = %q, want %q", got, tc.want)
			}
		})
	}
}

// TestSweepsWireSurface: between sweeps the served surface answers a
// lease request with a wait grant carrying the TTL and every other
// lease operation with 410; during one, results for keys outside it come
// from a retired sweep's lease and answer 410 too, and a sweep with
// nothing left to grant tells workers to wait, never that it is done.
func TestSweepsWireSurface(t *testing.T) {
	const ttl = 2 * time.Second
	s := NewSweeps(CoordinatorOptions{LeaseTTL: ttl}, 1)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	post := func(path, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(data)
	}

	code, body := post("/dist/v1/lease", `{"worker":"w0"}`)
	var g LeaseGrant
	if err := json.Unmarshal([]byte(body), &g); code != http.StatusOK || err != nil ||
		g.Status != GrantWait || g.TTLNS != int64(ttl) || g.RetryNS <= 0 {
		t.Errorf("idle lease: %d %s, want a wait grant carrying the TTL", code, body)
	}
	for _, path := range []string{"/dist/v1/heartbeat", "/dist/v1/complete"} {
		if code, body := post(path, `{"lease":"lease-1-0001","epoch":1}`); code != http.StatusGone {
			t.Errorf("idle %s: %d %s, want 410", path, code, body)
		}
	}
	batch, err := EncodeBatch(&Batch{Lease: "lease-1-0001", Epoch: 1, Entries: []Entry{{Key: "k", Value: []byte(`{}`)}}})
	if err != nil {
		t.Fatal(err)
	}
	if code, body := post("/dist/v1/results", string(batch)); code != http.StatusGone {
		t.Errorf("idle results: %d %s, want 410", code, body)
	}

	c, keys, _ := syntheticCoordinator(t, 2, CoordinatorOptions{Parts: 1})
	defer c.Close()
	s.cur.Store(c)
	if _, _, err := s.Results("lease-0-0001", c.Epoch(), []Entry{{Key: "foreign", Value: []byte(`{}`)}}); !errors.Is(err, ErrLeaseGone) {
		t.Errorf("results outside the live sweep: %v, want ErrLeaseGone", err)
	}
	g = mustLease(t, c, "in-process")
	if _, _, err := c.Results(g.Lease, g.Epoch, []Entry{{Key: keys[0], Value: []byte(`1`)}, {Key: keys[1], Value: []byte(`2`)}}); err != nil {
		t.Fatal(err)
	}
	if g, err := s.Lease("w0"); err != nil || g.Status != GrantWait {
		t.Errorf("lease from a finished sweep: %+v, %v; want a wait grant", g, err)
	}
}

// TestRetryDelayDeterministic: the backoff (including jitter) is a pure
// function of (base, key, attempt) — no wall-clock or global randomness.
func TestRetryDelayDeterministic(t *testing.T) {
	if d := retryDelay(0, "k", 1); d != 0 {
		t.Fatalf("zero base must not sleep, got %v", d)
	}
	d1 := retryDelay(1000, "k", 2)
	if d2 := retryDelay(1000, "k", 2); d2 != d1 {
		t.Fatalf("same inputs gave %v then %v", d1, d2)
	}
	if d1 < 2000 || d1 > 2500 {
		t.Fatalf("attempt-2 delay %v outside [2×base, 2×base+base/2]", d1)
	}
	if retryDelay(1000, "k", 2) == retryDelay(1000, "other-key", 2) &&
		retryDelay(1000, "k", 3) == retryDelay(1000, "other-key", 3) {
		t.Error("jitter ignores the job key")
	}
}
