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
	"github.com/uteda/gmap/internal/runner"
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
		if pr.Final || pr.Snapshot == nil || len(pr.Trace) != 0 {
			t.Errorf("heartbeat push %d: final=%v snapshot=%v span log %d events; want a snapshot and no span log",
				i, pr.Final, pr.Snapshot != nil, len(pr.Trace))
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
				_ = c.Heartbeat("holder", g.Lease, g.Epoch)
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
		if !pr.Final && (pr.Snapshot == nil || len(pr.Trace) != 0) {
			t.Errorf("wait push %d: snapshot=%v span log %d events; want a snapshot and no span log",
				i, pr.Snapshot != nil, len(pr.Trace))
		}
	}
}

// TestWaitingWorkerHearsDoneAtItsPoll: a wait grant does not set the
// worker's pace. An HTTP worker told "wait" asks again at its own Poll
// interval, so it hears "done" and exits within a few intervals of the
// sweep's last merge, however long the lease TTL.
func TestWaitingWorkerHearsDoneAtItsPoll(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	const poll = 50 * time.Millisecond
	c, err := NewCoordinator(CoordinatorOptions{
		Spec:     quickSpec("fig6a"),
		Parts:    1,
		LeaseTTL: time.Hour,
		Ledger:   filepath.Join(t.TempDir(), "ledger.jsonl"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var asked atomic.Int64
	h := c.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/dist/v1/lease" {
			asked.Add(1)
		}
		h.ServeHTTP(w, r)
	}))
	defer srv.Close()

	// Hold the only part, so the worker can only wait.
	g, err := c.Lease("holder")
	if err != nil || g.Status != GrantLease {
		t.Fatalf("holder lease: %+v, %v", g, err)
	}
	done := make(chan error, 1)
	go func() {
		done <- RunWorker(ctx, WorkerOptions{Coordinator: srv.URL, Name: "w0", Workers: 1, Poll: poll, Logf: t.Logf})
	}()
	for deadline := time.Now().Add(100 * poll); asked.Load() < 2; time.Sleep(poll / 5) {
		if time.Now().After(deadline) {
			t.Fatalf("the worker asked for a lease %d time(s) in %v; a waiting worker asks at its %v poll",
				asked.Load(), 100*poll, poll)
		}
	}

	entries := make([]Entry, len(g.Keys))
	for i, k := range g.Keys {
		entries[i] = Entry{Key: k, Value: json.RawMessage(`{}`)}
	}
	if _, _, err := c.Results("holder", g.Lease, g.Epoch, entries); err != nil {
		t.Fatal(err)
	}
	merged := time.Now()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("worker: %v", err)
		}
	case <-time.After(100 * poll):
		t.Fatalf("the waiting worker was still running %v after the last merge", 100*poll)
	}
	// Twenty polls leave room for a loaded host; the old quarter-TTL
	// hint would have kept the worker asleep for fifteen minutes.
	if d := time.Since(merged); d > 20*poll {
		t.Errorf("the waiting worker exited %v after the last merge; want within a few %v polls", d, poll)
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
// once per Poll within its retry budget — one request plus three
// retries — and then exits with an error naming the deposed endpoint,
// instead of asking again at once until its context ends.
func TestDeposedCoordinatorLeaseBudget(t *testing.T) {
	ledger := filepath.Join(t.TempDir(), "ledger.jsonl")
	c1, _, _ := syntheticCoordinator(t, 8, CoordinatorOptions{Parts: 2, Ledger: ledger})
	defer c1.Close()
	c2, _, _ := syntheticCoordinator(t, 8, CoordinatorOptions{Parts: 2, Ledger: ledger})
	defer c2.Close()

	var mu sync.Mutex
	var asked []time.Time
	h := c1.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/dist/v1/lease" {
			mu.Lock()
			asked = append(asked, time.Now())
			mu.Unlock()
		}
		h.ServeHTTP(w, r)
	}))
	defer srv.Close()

	const poll = 20 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	err := RunWorker(ctx, WorkerOptions{Coordinator: srv.URL, Name: "w0", Poll: poll, Retries: 3})
	if err == nil || ctx.Err() != nil || !strings.Contains(err.Error(), srv.URL) {
		t.Errorf("worker returned %v (context: %v); want an error naming the deposed coordinator %s before the deadline",
			err, ctx.Err(), srv.URL)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(asked) > 4 {
		t.Errorf("%d lease requests to a deposed coordinator; a budget of 3 retries allows 4", len(asked))
	}
	for i := 1; i < len(asked); i++ {
		if d := asked[i].Sub(asked[i-1]); d < poll {
			t.Errorf("lease request %d came %v after the one before; retries are a %v poll apart", i+1, d, poll)
		}
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
		g.Status != GrantWait || g.TTLNS != int64(ttl) {
		t.Errorf("idle lease: %d %s, want a wait grant carrying the TTL", code, body)
	}
	for path, body := range map[string]string{
		"/dist/v1/heartbeat": `{"lease":"lease-1-0001","epoch":1}`,
		"/dist/v1/results":   `{"lease":"lease-1-0001","epoch":1,"entries":[{"key":"k","value":{}}]}`,
	} {
		if code, resp := post(path, body); code != http.StatusGone {
			t.Errorf("idle %s: %d %s, want 410", path, code, resp)
		}
	}

	c, keys, _ := syntheticCoordinator(t, 2, CoordinatorOptions{Parts: 1})
	defer c.Close()
	s.cur.Store(c)
	if _, _, err := s.Results("w0", "lease-0-0001", c.Epoch(), []Entry{{Key: "foreign", Value: []byte(`{}`)}}); !errors.Is(err, ErrLeaseGone) {
		t.Errorf("results outside the live sweep: %v, want ErrLeaseGone", err)
	}
	g = mustLease(t, c, "in-process")
	if _, _, err := c.Results("in-process", g.Lease, g.Epoch, []Entry{{Key: keys[0], Value: []byte(`1`)}, {Key: keys[1], Value: []byte(`2`)}}); err != nil {
		t.Fatal(err)
	}
	if g, err := s.Lease("w0"); err != nil || g.Status != GrantWait {
		t.Errorf("lease from a finished sweep: %+v, %v; want a wait grant", g, err)
	}
}

// TestResultsRouteRejects: the results route answers a malformed
// delivery 400 before the coordinator sees it, and a delivery fenced to
// no epoch of this coordinator's 409 stale_epoch: none at all (epochs
// start at 1), or one past int64. None writes a ledger line; the same
// delivery well formed is accepted.
func TestResultsRouteRejects(t *testing.T) {
	c, keys, _ := syntheticCoordinator(t, 2, CoordinatorOptions{Parts: 1})
	defer c.Close()
	g := mustLease(t, c, "w0")
	lease := fmt.Sprintf(`"lease":%q,"epoch":%d`, g.Lease, g.Epoch)
	key := fmt.Sprintf(`"key":%q`, keys[0])
	entries := `"entries":[{` + key + `,"value":{}}]`
	post := func(body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		c.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/dist/v1/results", strings.NewReader(body)))
		return rec
	}
	for _, tc := range []struct {
		name, body string
		code       int
	}{
		{"empty body", "", http.StatusBadRequest},
		{"binary batch", "gmapdist2\n\x0clease-1-0001\x01\x01\x18" + keys[0] + "\x02{}\x00", http.StatusBadRequest},
		{"truncated JSON", `{` + lease + `,"entries":[{` + key + `,"val`, http.StatusBadRequest},
		{"entries not a list", `{` + lease + `,"entries":{` + key + `,"value":{}}}`, http.StatusBadRequest},
		{"no value", `{` + lease + `,"entries":[{` + key + `}]}`, http.StatusBadRequest},
		{"empty key", `{` + lease + `,"entries":[{"key":"","value":{}}]}`, http.StatusBadRequest},
		{"negative elapsed", `{` + lease + `,"entries":[{` + key + `,"value":{},"elapsed_ns":-1}]}`, http.StatusBadRequest},
		{"negative epoch", fmt.Sprintf(`{"lease":%q,"epoch":-1,%s}`, g.Lease, entries), http.StatusBadRequest},
		{"epoch past uint64", fmt.Sprintf(`{"lease":%q,"epoch":18446744073709551616,%s}`, g.Lease, entries), http.StatusBadRequest},
		{"no epoch", fmt.Sprintf(`{"lease":%q,%s}`, g.Lease, entries), http.StatusConflict},
		{"epoch past int64", fmt.Sprintf(`{"lease":%q,"epoch":18446744073709551615,%s}`, g.Lease, entries), http.StatusConflict},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := post(tc.body)
			if rec.Code != tc.code {
				t.Errorf("%d %s, want %d", rec.Code, rec.Body, tc.code)
			}
			if tc.code == http.StatusConflict && !strings.Contains(rec.Body.String(), `"code":"stale_epoch"`) {
				t.Errorf("%s, want code stale_epoch", rec.Body)
			}
		})
	}
	if data, err := os.ReadFile(c.o.Ledger); err != nil || len(data) != 0 {
		t.Fatalf("rejected deliveries wrote the ledger: %q, %v", data, err)
	}
	if rec := post(`{` + lease + `,"entries":[{` + key + `,"value":{},"elapsed_ns":5}]}`); rec.Code != http.StatusOK ||
		!strings.Contains(rec.Body.String(), `"accepted":1`) {
		t.Fatalf("well-formed delivery: %d %s, want one result accepted", rec.Code, rec.Body)
	}
}

// TestResultsRoundTrip: results a worker posts reach the ledger as the
// bytes a local checkpoint records for the same entries, spacing
// compacted away, and the same delivery posted again after its part is
// done counts as duplicates and writes nothing.
func TestResultsRoundTrip(t *testing.T) {
	c, keys, _ := syntheticCoordinator(t, 4, CoordinatorOptions{Parts: 1})
	defer c.Close()
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	g := mustLease(t, c, "w0")
	entries := append(sampleEntries(), Entry{Value: json.RawMessage(`{ "a" : [1, 2.50] }`), ElapsedNS: 7})
	for i := range entries {
		entries[i].Key = keys[i]
	}
	r := remote{&client{base: srv.URL, hc: srv.Client()}, context.Background()}
	if acc, dups, err := r.Results("w0", g.Lease, g.Epoch, entries); err != nil || acc != len(entries) || dups != 0 {
		t.Fatalf("delivery: %d accepted, %d duplicates, %v; want %d accepted", acc, dups, err, len(entries))
	}

	local := filepath.Join(t.TempDir(), "local.jsonl")
	app, err := runner.OpenCheckpointAppender(nil, local, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if err := app.Append(e.Key, e.Value, time.Duration(e.ElapsedNS)); err != nil {
			t.Fatal(err)
		}
	}
	if err := app.Close(); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(local)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(c.o.Ledger); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("ledger after the wire:\n%s\nlocal checkpoint:\n%s (%v)", got, want, err)
	}

	if st := c.StatusSnapshot(); !st.Done {
		t.Fatalf("every key delivered but the sweep is not done: %+v", st)
	}
	if acc, dups, err := r.Results("w0", g.Lease, g.Epoch, entries); err != nil || acc != 0 || dups != len(entries) {
		t.Fatalf("re-delivery: %d accepted, %d duplicates, %v; want %d duplicates", acc, dups, err, len(entries))
	}
	if got, err := os.ReadFile(c.o.Ledger); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("re-delivery wrote the ledger:\n%s (%v)", got, err)
	}
}

// TestResultsEmptyDelivery: a delivery without entries under a live
// lease accepts nothing and writes no ledger line, but proves the
// worker alive: it renews the lease as a heartbeat does.
func TestResultsEmptyDelivery(t *testing.T) {
	const ttl = 10 * time.Second
	c, _, clk := syntheticCoordinator(t, 2, CoordinatorOptions{Parts: 1, LeaseTTL: ttl})
	defer c.Close()
	g := mustLease(t, c, "w0")
	body := fmt.Sprintf(`{"lease":%q,"epoch":%d,"entries":[]}`, g.Lease, g.Epoch)
	for i := 0; i < 3; i++ {
		clk.advance(ttl * 3 / 4)
		rec := httptest.NewRecorder()
		c.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/dist/v1/results", strings.NewReader(body)))
		if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"accepted":0`) {
			t.Fatalf("empty delivery %d: %d %s, want nothing accepted", i, rec.Code, rec.Body)
		}
	}
	if err := c.Heartbeat("w0", g.Lease, g.Epoch); err != nil {
		t.Fatalf("lease %s after empty deliveries spanning 2.25 TTLs: %v", g.Lease, err)
	}
	if data, err := os.ReadFile(c.o.Ledger); err != nil || len(data) != 0 {
		t.Fatalf("empty deliveries wrote the ledger: %q, %v", data, err)
	}
}

// TestResultsInvalidValueNotSent: a worker whose result value is not
// JSON fails that delivery before posting anything, with an error no
// retry can mend.
func TestResultsInvalidValueNotSent(t *testing.T) {
	var posts atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		posts.Add(1)
		writeJSON(w, http.StatusOK, resultsResponse{})
	}))
	defer srv.Close()
	r := remote{&client{base: srv.URL, hc: srv.Client()}, context.Background()}
	_, _, err := r.Results("w0", "lease-1-0001", 1, []Entry{{Key: "k", Value: json.RawMessage(`{"orig":`)}})
	if err == nil || retryable(err) {
		t.Errorf("invalid value: %v, want an error that is not retryable", err)
	}
	if n := posts.Load(); n != 0 {
		t.Errorf("invalid value posted %d times, want none", n)
	}
}

// TestHeartbeatFencedToEpoch: a heartbeat renews its lease only at the
// coordinator's own epoch. One fenced to no epoch, a later one, or one
// past int64 answers 409 stale_epoch.
func TestHeartbeatFencedToEpoch(t *testing.T) {
	c, _, _ := syntheticCoordinator(t, 2, CoordinatorOptions{Parts: 1})
	defer c.Close()
	g := mustLease(t, c, "w0")
	beat := func(epoch string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		body := fmt.Sprintf(`{"lease":%q,"epoch":%s}`, g.Lease, epoch)
		c.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/dist/v1/heartbeat", strings.NewReader(body)))
		return rec
	}
	for _, epoch := range []string{"0", fmt.Sprint(g.Epoch + 1), "9223372036854775808", "18446744073709551615"} {
		if rec := beat(epoch); rec.Code != http.StatusConflict || !strings.Contains(rec.Body.String(), `"code":"stale_epoch"`) {
			t.Errorf("heartbeat at epoch %s: %d %s, want 409 stale_epoch", epoch, rec.Code, rec.Body)
		}
	}
	if rec := beat(fmt.Sprint(g.Epoch)); rec.Code != http.StatusOK {
		t.Errorf("heartbeat at epoch %d: %d %s, want 200", g.Epoch, rec.Code, rec.Body)
	}
}

// TestWorkerDeliversEachResult: a worker posts every completed point as
// its own JSON delivery, one entry per body and one body per leased key.
func TestWorkerDeliversEachResult(t *testing.T) {
	c, err := NewCoordinator(CoordinatorOptions{
		Spec:   quickSpec("fig6a"),
		Parts:  2,
		Ledger: filepath.Join(t.TempDir(), "ledger.jsonl"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	h := c.Handler()
	var mu sync.Mutex
	var bodies []resultsRequest
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/dist/v1/results" {
			data, _ := io.ReadAll(r.Body)
			r.Body = io.NopCloser(bytes.NewReader(data))
			var req resultsRequest
			if err := json.Unmarshal(data, &req); err != nil {
				t.Errorf("results body %q: %v", data, err)
			}
			mu.Lock()
			bodies = append(bodies, req)
			mu.Unlock()
		}
		h.ServeHTTP(w, r)
	}))
	defer srv.Close()

	reg := obs.New()
	if err := RunWorker(context.Background(), WorkerOptions{Coordinator: srv.URL, Name: "w0", Workers: 1, Obs: reg}); err != nil {
		t.Fatal(err)
	}
	leased := reg.CounterTotal("dist.worker.keys_leased")
	if st := c.StatusSnapshot(); !st.Done || leased != uint64(st.TotalJobs) {
		t.Fatalf("a lone worker leased %d keys of %d (done %v)", leased, st.TotalJobs, st.Done)
	}
	mu.Lock()
	defer mu.Unlock()
	if uint64(len(bodies)) != leased {
		t.Errorf("%d result bodies for %d leased keys, want one each", len(bodies), leased)
	}
	for i, b := range bodies {
		if len(b.Entries) != 1 || b.Epoch != c.Epoch() {
			t.Errorf("body %d: %d entries at epoch %d, want one at epoch %d", i, len(b.Entries), b.Epoch, c.Epoch())
		}
	}
}
