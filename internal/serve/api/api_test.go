package api_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/uteda/gmap/internal/eval"
	"github.com/uteda/gmap/internal/fault"
	"github.com/uteda/gmap/internal/obs"
	"github.com/uteda/gmap/internal/profiler"
	"github.com/uteda/gmap/internal/serve"
	"github.com/uteda/gmap/internal/serve/api"
	"github.com/uteda/gmap/internal/serve/queue"
	"github.com/uteda/gmap/internal/serve/store"
	"github.com/uteda/gmap/internal/trace"
	"github.com/uteda/gmap/internal/workloads"
)

// env is one live service over a real listener.
type env struct {
	t      *testing.T
	root   string
	reg    *obs.Registry
	svc    *api.Service
	srv    *serve.Server
	ctx    context.Context
	cancel context.CancelFunc
}

func newEnv(t *testing.T, root string, qopts queue.Options, start bool) *env {
	t.Helper()
	return newEnvFS(t, root, nil, qopts, start)
}

// newEnvFS is newEnv with the store's file I/O going through fsys.
func newEnvFS(t *testing.T, root string, fsys fault.FS, qopts queue.Options, start bool) *env {
	t.Helper()
	reg := obs.New()
	st, err := store.Open(root, fsys, reg)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := api.New(api.Options{
		Store:        st,
		Queue:        qopts,
		SweepWorkers: 2,
		Obs:          reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	srv, err := serve.Start(ctx, "api test", "127.0.0.1:0", svc.Handler())
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	e := &env{t: t, root: root, reg: reg, svc: svc, srv: srv, ctx: ctx, cancel: cancel}
	if start {
		if err := svc.Start(ctx); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		cancel()
		_ = srv.Shutdown()
		svc.Wait()
	})
	return e
}

// shutdown stops the env's service and server, draining workers.
func (e *env) shutdown() {
	e.cancel()
	_ = e.srv.Shutdown()
	e.svc.Wait()
}

func (e *env) url(path string) string { return e.srv.URL() + path }

// do issues a request and decodes the JSON response body into out
// (skipped when out is nil), returning the status code.
func (e *env) do(method, path string, body io.Reader, out interface{}, hdr map[string]string) (int, http.Header) {
	e.t.Helper()
	req, err := http.NewRequest(method, e.url(path), body)
	if err != nil {
		e.t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		e.t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		e.t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			e.t.Fatalf("%s %s: decoding %q: %v", method, path, data, err)
		}
	}
	return resp.StatusCode, resp.Header
}

// jobView mirrors the wire form the handlers emit.
type jobView struct {
	Job         string `json:"job"`
	Kind        string `json:"kind"`
	Status      string `json:"status"`
	Cached      bool   `json:"cached"`
	Error       string `json:"error"`
	ProfileHash string `json:"profile_hash"`
	ConfigHash  string `json:"config_hash"`
	ResultURL   string `json:"result_url"`
}

// uploadProfile profiles the named builtin benchmark locally and POSTs
// the profile, returning its content hash.
func (e *env) uploadProfile(t *testing.T, benchmark string) string {
	t.Helper()
	spec, ok := workloads.ByName(benchmark)
	if !ok {
		t.Fatalf("unknown benchmark %s", benchmark)
	}
	k, err := spec.Trace(1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := profiler.ProfileKernel(k, profiler.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var resp struct {
		Profile string `json:"profile"`
	}
	code, _ := e.do("POST", "/v1/profiles", &buf, &resp, nil)
	if code != http.StatusCreated && code != http.StatusOK {
		t.Fatalf("profile upload: status %d", code)
	}
	return resp.Profile
}

// waitDone polls a job until it reaches done (or fails the test on a
// terminal non-done status or timeout).
func (e *env) waitDone(t *testing.T, id string, timeout time.Duration) jobView {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		var v jobView
		code, _ := e.do("GET", "/v1/jobs/"+id, nil, &v, nil)
		if code != http.StatusOK {
			t.Fatalf("poll job %s: status %d", id, code)
		}
		switch v.Status {
		case api.StatusDone:
			return v
		case api.StatusFailed, api.StatusCanceled:
			t.Fatalf("job %s reached %s: %s", id, v.Status, v.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %v", id, v.Status, timeout)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestEndToEndCloneAndCache drives the full loop over a real listener:
// upload profile → submit clone → poll → fetch result, then resubmits
// the identical spec and asserts it is served from the result cache
// without consuming a queue slot.
func TestEndToEndCloneAndCache(t *testing.T) {
	e := newEnv(t, t.TempDir(), queue.Options{Workers: 1, Depth: 8}, true)
	hash := e.uploadProfile(t, "aes")

	specJSON := fmt.Sprintf(`{"kind":"clone","profile":%q,"seed":7,"scale_factor":4}`, hash)
	var sub jobView
	code, _ := e.do("POST", "/v1/jobs", strings.NewReader(specJSON), &sub, nil)
	if code != http.StatusAccepted {
		t.Fatalf("first submit: status %d", code)
	}
	if sub.Status != api.StatusQueued && sub.Status != api.StatusRunning {
		t.Fatalf("first submit status %q", sub.Status)
	}
	done := e.waitDone(t, sub.Job, 30*time.Second)
	if done.ResultURL == "" {
		t.Fatal("done job carries no result URL")
	}

	var result struct {
		Kind     string `json:"kind"`
		Name     string `json:"name"`
		Warps    int    `json:"warps"`
		Requests int    `json:"requests"`
		ProxyB64 string `json:"proxy_b64"`
	}
	code, _ = e.do("GET", done.ResultURL, nil, &result, nil)
	if code != http.StatusOK {
		t.Fatalf("result fetch: status %d", code)
	}
	if result.Kind != "clone" || result.Warps == 0 || result.ProxyB64 == "" {
		t.Fatalf("implausible clone result: %+v", result)
	}

	admittedBefore := e.reg.CounterTotal("serve.queue.admitted")
	hitsBefore := e.reg.CounterTotal("serve.api.cache_hits")

	// Bit-for-bit identical result on resubmission, served from cache.
	first, err := os.ReadFile(resultFile(e.root, done))
	if err != nil {
		t.Fatal(err)
	}
	var resub jobView
	code, _ = e.do("POST", "/v1/jobs", strings.NewReader(specJSON), &resub, nil)
	if code != http.StatusOK {
		t.Fatalf("resubmit: status %d (want 200 cache hit)", code)
	}
	if resub.Status != api.StatusDone || !resub.Cached {
		t.Fatalf("resubmit: status=%s cached=%v, want done from cache", resub.Status, resub.Cached)
	}
	if resub.Job != sub.Job {
		t.Fatalf("identical spec mapped onto a different job: %s vs %s", resub.Job, sub.Job)
	}
	second, err := os.ReadFile(resultFile(e.root, done))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("cached result bytes changed across resubmission")
	}
	if got := e.reg.CounterTotal("serve.queue.admitted"); got != admittedBefore {
		t.Fatalf("resubmission consumed a queue slot: admitted %d -> %d", admittedBefore, got)
	}
	if got := e.reg.CounterTotal("serve.api.cache_hits"); got != hitsBefore+1 {
		t.Fatalf("cache_hits %d -> %d, want +1", hitsBefore, got)
	}

	// A different seed is a different config hash: new job, no cache hit.
	var other jobView
	code, _ = e.do("POST", "/v1/jobs", strings.NewReader(
		fmt.Sprintf(`{"kind":"clone","profile":%q,"seed":8,"scale_factor":4}`, hash)), &other, nil)
	if code != http.StatusAccepted {
		t.Fatalf("different-seed submit: status %d", code)
	}
	if other.Job == sub.Job {
		t.Fatal("different seed collided onto the same job id")
	}
	e.waitDone(t, other.Job, 30*time.Second)
}

// resultFile locates the on-disk cache entry for a done job.
func resultFile(root string, v jobView) string {
	return root + "/results/" + v.ProfileHash + "." + v.ConfigHash + ".json"
}

// TestSweepMatchesDirectEval submits a sweep job and asserts the
// service's report is byte-identical to running the evaluation harness
// directly with the same options — the cache-transparency guarantee.
func TestSweepMatchesDirectEval(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep e2e is seconds-long; skipped under -short")
	}
	e := newEnv(t, t.TempDir(), queue.Options{Workers: 1, Depth: 8}, true)
	spec := `{"kind":"sweep","experiment":"table1","benchmarks":["aes","bfs"],"seed":1,"scale_factor":4}`
	var sub jobView
	code, _ := e.do("POST", "/v1/jobs", strings.NewReader(spec), &sub, nil)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	done := e.waitDone(t, sub.Job, 3*time.Minute)

	var result struct {
		Kind       string `json:"kind"`
		Experiment string `json:"experiment"`
		Report     string `json:"report"`
	}
	code, _ = e.do("GET", done.ResultURL, nil, &result, nil)
	if code != http.StatusOK {
		t.Fatalf("result fetch: status %d", code)
	}

	var direct bytes.Buffer
	opts := eval.Options{
		Benchmarks:  []string{"aes", "bfs"},
		Seed:        1,
		Scale:       1,
		ScaleFactor: 4,
		NoTimings:   true,
	}
	if err := opts.Run(&direct, "table1"); err != nil {
		t.Fatal(err)
	}
	if result.Report != direct.String() {
		t.Fatalf("service report differs from direct evaluation:\n--- service ---\n%s\n--- direct ---\n%s", result.Report, direct.String())
	}
}

// TestBackpressure429 is the admission-control contract: with depth 1
// and a held worker, a burst of 100 concurrent distinct submissions
// gets exactly one admission and 99 rejections carrying 429 +
// Retry-After.
func TestBackpressure429(t *testing.T) {
	e := newEnv(t, t.TempDir(), queue.Options{Workers: 1, Depth: 1}, false) // queue not started: nothing drains
	hash := e.uploadProfile(t, "aes")

	const burst = 100
	var wg sync.WaitGroup
	codes := make([]int, burst)
	retryAfter := make([]string, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			spec := fmt.Sprintf(`{"kind":"clone","profile":%q,"seed":%d}`, hash, i+1)
			code, hdr := e.do("POST", "/v1/jobs", strings.NewReader(spec), nil, nil)
			codes[i] = code
			retryAfter[i] = hdr.Get("Retry-After")
		}(i)
	}
	wg.Wait()

	admitted, rejected := 0, 0
	for i, code := range codes {
		switch code {
		case http.StatusAccepted:
			admitted++
		case http.StatusTooManyRequests:
			rejected++
			if retryAfter[i] == "" {
				t.Fatalf("429 response %d carried no Retry-After", i)
			}
		default:
			t.Fatalf("submission %d: unexpected status %d", i, code)
		}
	}
	if admitted != 1 || rejected != burst-1 {
		t.Fatalf("admitted=%d rejected=%d, want 1/%d", admitted, rejected, burst-1)
	}
	// Rejected submissions must not leave journal debris behind: exactly
	// the one admitted job remains journaled.
	entries, err := os.ReadDir(e.root + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("journal holds %d entries after the burst, want 1", len(entries))
	}
}

// TestSubmitValidation: malformed specs are rejected with 400 before
// touching the queue.
func TestSubmitValidation(t *testing.T) {
	e := newEnv(t, t.TempDir(), queue.Options{Workers: 1, Depth: 4}, true)
	cases := []string{
		`{"kind":"teleport"}`,
		`{"kind":"clone"}`,
		fmt.Sprintf(`{"kind":"clone","profile":%q}`, strings.Repeat("ab", 32)),
		`{"kind":"sweep","experiment":"fig99"}`,
		`{"kind":"sweep","experiment":"fig6a","benchmarks":["nonesuch"]}`,
		`{"kind":"sweep","experiment":"fig6a","profile":"abc"}`,
		`{"kind":"clone","profile":"x","unknown_field":1}`,
	}
	for _, c := range cases {
		var resp struct {
			Error string `json:"error"`
		}
		code, _ := e.do("POST", "/v1/jobs", strings.NewReader(c), &resp, nil)
		if code != http.StatusBadRequest {
			t.Fatalf("spec %s: status %d, want 400", c, code)
		}
		if resp.Error == "" {
			t.Fatalf("spec %s: no error message", c)
		}
	}
	// A client still naming a tenant is served like any other, and job
	// views name none.
	var view map[string]interface{}
	code, _ := e.do("POST", "/v1/jobs", strings.NewReader(table2Spec), &view,
		map[string]string{"X-Gmap-Tenant": "no spaces allowed"})
	if code != http.StatusAccepted {
		t.Fatalf("submit with X-Gmap-Tenant: status %d, want 202", code)
	}
	if _, ok := view["tenant"]; ok {
		t.Fatalf("job view carries a tenant: %v", view)
	}
}

// TestUploadRejectsTrailingData: a profile or binary trace upload
// followed by bytes past its last record answers 400 and stores
// nothing; the same upload without them is stored.
func TestUploadRejectsTrailingData(t *testing.T) {
	e := newEnv(t, t.TempDir(), queue.Options{Workers: 1, Depth: 4}, true)
	spec, _ := workloads.ByName("nn")
	k, err := spec.Trace(1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := profiler.ProfileKernel(k, profiler.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var prof, tr bytes.Buffer
	if err := p.WriteJSON(&prof); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteBinary(&tr, k); err != nil {
		t.Fatal(err)
	}
	for _, up := range []struct{ path, body string }{
		{"/v1/profiles", prof.String()},
		{"/v1/traces", tr.String()},
	} {
		if code, _ := e.do("POST", up.path, strings.NewReader(up.body+"zz"), nil, nil); code != http.StatusBadRequest {
			t.Errorf("POST %s with bytes after the last record: status %d, want 400", up.path, code)
		}
		// The trace profiles to the profile already stored: 200, not 201.
		if code, _ := e.do("POST", up.path, strings.NewReader(up.body), nil, nil); code != http.StatusCreated && code != http.StatusOK {
			t.Errorf("POST %s: status %d, want it stored", up.path, code)
		}
	}
}

// TestRestartRecovery: a job journaled by a process that died before
// (or while) executing it is re-enqueued and completed by the next
// process over the same store.
func TestRestartRecovery(t *testing.T) {
	root := t.TempDir()

	// Process A: admit a job but never start the queue — the journal
	// entry is durable, the work never happens (a crash immediately
	// after admission).
	a := newEnv(t, root, queue.Options{Workers: 1, Depth: 4}, false)
	spec := `{"kind":"sweep","experiment":"table2"}`
	var sub jobView
	code, _ := a.do("POST", "/v1/jobs", strings.NewReader(spec), &sub, nil)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	a.shutdown()

	// Process B: recovery re-enqueues and completes the journaled job.
	b := newEnv(t, root, queue.Options{Workers: 1, Depth: 4}, true)
	done := b.waitDone(t, sub.Job, time.Minute)
	if done.Job != sub.Job {
		t.Fatalf("recovered job id %s, want %s", done.Job, sub.Job)
	}
	if got := b.reg.CounterTotal("serve.api.recovered_jobs"); got != 1 {
		t.Fatalf("recovered_jobs = %d, want 1", got)
	}
	entries, err := os.ReadDir(root + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("journal holds %d entries after recovery, want 0", len(entries))
	}

	// Process C: the same submission is now a pure cache hit — no queue
	// admission, served as done immediately.
	b.shutdown()
	c := newEnv(t, root, queue.Options{Workers: 1, Depth: 4}, true)
	var resub jobView
	code, _ = c.do("POST", "/v1/jobs", strings.NewReader(spec), &resub, nil)
	if code != http.StatusOK || resub.Status != api.StatusDone || !resub.Cached {
		t.Fatalf("post-restart resubmit: code=%d status=%s cached=%v", code, resub.Status, resub.Cached)
	}
	if got := c.reg.CounterTotal("serve.queue.admitted"); got != 0 {
		t.Fatalf("cache hit consumed a queue slot (admitted=%d)", got)
	}
}

// TestCancelQueuedJob: cancelling a queued job finalizes it without
// execution and retires its journal entry.
func TestCancelQueuedJob(t *testing.T) {
	e := newEnv(t, t.TempDir(), queue.Options{Workers: 1, Depth: 4}, false) // never drains
	spec := `{"kind":"sweep","experiment":"table2"}`
	var sub jobView
	code, _ := e.do("POST", "/v1/jobs", strings.NewReader(spec), &sub, nil)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	var canceled jobView
	code, _ = e.do("DELETE", "/v1/jobs/"+sub.Job, nil, &canceled, nil)
	if code != http.StatusOK || canceled.Status != api.StatusCanceled {
		t.Fatalf("cancel: code=%d status=%s", code, canceled.Status)
	}
	entries, err := os.ReadDir(e.root + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("journal holds %d entries after cancel, want 0", len(entries))
	}
	code, _ = e.do("DELETE", "/v1/jobs/"+strings.Repeat("00", 12), nil, nil, nil)
	if code != http.StatusNotFound {
		t.Fatalf("cancel of unknown job: status %d", code)
	}
}

// hold is a one-shot gate in a file operation: the operation closes
// reached when it gets there, then waits until the test opens the gate.
type hold struct {
	reached, opened chan struct{}
	once            sync.Once
}

func newHold() *hold { return &hold{reached: make(chan struct{}), opened: make(chan struct{})} }

func (h *hold) wait() {
	close(h.reached)
	<-h.opened
}

func (h *hold) open() { h.once.Do(func() { close(h.opened) }) }

// waitReached blocks until an operation is held at the gate.
func (h *hold) waitReached(t *testing.T) {
	t.Helper()
	select {
	case <-h.reached:
	case <-time.After(time.Minute):
		t.Fatal("no file operation reached the gate")
	}
}

// during runs f while an operation is held, opening the gate when f
// returns or after 200 ms, whichever comes first.
func (h *hold) during(f func()) {
	timer := time.AfterFunc(200*time.Millisecond, h.open)
	defer timer.Stop()
	f()
	h.open()
}

// gateFS is the store's file system with scripted faults. The first
// Remove of a journal entry waits at remove. With failResult set, the
// first Create under results/ fails, so the job committing that result
// fails, and the second waits at commit.
type gateFS struct {
	fault.FS
	root           string
	failResult     bool
	creates        atomic.Int32
	removes        atomic.Int32
	remove, commit *hold
}

// newGatedEnv is a fresh env over a gateFS, with one worker and depth 4.
func newGatedEnv(t *testing.T, failResult, start bool) (*env, *gateFS) {
	t.Helper()
	root := t.TempDir()
	g := &gateFS{FS: fault.OS, root: root, failResult: failResult, remove: newHold(), commit: newHold()}
	e := newEnvFS(t, root, g, queue.Options{Workers: 1, Depth: 4}, start)
	// Cleanups run last-in first-out: the gates open before the env's
	// cleanup waits for the operations they hold.
	t.Cleanup(g.remove.open)
	t.Cleanup(g.commit.open)
	return e, g
}

func (g *gateFS) Create(name string) (fault.File, error) {
	if g.failResult && filepath.Dir(name) == filepath.Join(g.root, "results") {
		switch g.creates.Add(1) {
		case 1:
			return nil, errors.New("injected: results/ refuses the write")
		case 2:
			g.commit.wait()
		}
	}
	return g.FS.Create(name)
}

func (g *gateFS) Remove(name string) error {
	if filepath.Dir(name) == filepath.Join(g.root, "jobs") && g.removes.Add(1) == 1 {
		g.remove.wait()
	}
	return g.FS.Remove(name)
}

const table2Spec = `{"kind":"sweep","experiment":"table2"}`

// TestResubmitFailedJob: a job whose result cannot be committed fails,
// and resubmitting it while the failed run still retires its journal
// entry is a fresh admission that stays journaled until it finishes.
// The service alone decides duplicates: the failed run's worker has not
// returned yet, so a queue refusing ids it still holds would answer 500.
func TestResubmitFailedJob(t *testing.T) {
	e, g := newGatedEnv(t, true, true)
	var sub jobView
	if code, _ := e.do("POST", "/v1/jobs", strings.NewReader(table2Spec), &sub, nil); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	g.remove.waitReached(t)
	var resub jobView
	var code int
	g.remove.during(func() { code, _ = e.do("POST", "/v1/jobs", strings.NewReader(table2Spec), &resub, nil) })
	if code != http.StatusAccepted {
		t.Fatalf("resubmission of the failed job: status %d (%q), want 202", code, resub.Error)
	}
	g.commit.waitReached(t) // the resubmission ran and is committing its result
	if _, err := os.Stat(filepath.Join(e.root, "jobs", resub.Job+".json")); err != nil {
		t.Fatalf("admitted resubmission lost its journal entry before finishing: %v", err)
	}
	g.commit.open()
	e.waitDone(t, resub.Job, time.Minute)
}

// TestCancelWindowKeepsJournal: cancelling a queued job retires its
// journal entry before the job reads canceled, so a resubmission
// admitted meanwhile keeps the entry it journaled and survives a
// restart. Were the status published first, the late retirement would
// delete that entry: an admitted job with nothing on disk. The DELETE
// answers with the job it cancelled, not the resubmission that took
// the id meanwhile.
func TestCancelWindowKeepsJournal(t *testing.T) {
	e, g := newGatedEnv(t, false, false) // queue not started: nothing drains
	var sub jobView
	if code, _ := e.do("POST", "/v1/jobs", strings.NewReader(table2Spec), &sub, nil); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	type answer struct {
		code int
		view jobView
	}
	canceled := make(chan answer, 1)
	go func() {
		var a answer
		req, err := http.NewRequest("DELETE", e.url("/v1/jobs/"+sub.Job), nil)
		if err == nil {
			var resp *http.Response
			if resp, err = http.DefaultClient.Do(req); err == nil {
				a.code = resp.StatusCode
				err = json.NewDecoder(resp.Body).Decode(&a.view)
				resp.Body.Close()
			}
		}
		if err != nil {
			t.Error(err)
		}
		canceled <- a
	}()
	g.remove.waitReached(t)
	var resub jobView
	var code int
	g.remove.during(func() { code, _ = e.do("POST", "/v1/jobs", strings.NewReader(table2Spec), &resub, nil) })
	if a := <-canceled; a.code != http.StatusOK || a.view.Status != "canceled" {
		t.Fatalf("cancel: status %d, job %+v; want 200 and the canceled job", a.code, a.view)
	}
	if code != http.StatusAccepted {
		t.Fatalf("resubmission of the canceled job: status %d, want 202", code)
	}
	if _, err := os.Stat(filepath.Join(e.root, "jobs", resub.Job+".json")); err != nil {
		t.Fatalf("admitted resubmission (now %s) has no journal entry: %v", resub.Status, err)
	}
	e.shutdown()
	b := newEnv(t, e.root, queue.Options{Workers: 1, Depth: 4}, true)
	b.waitDone(t, resub.Job, time.Minute)
	if got := b.reg.CounterTotal("serve.api.recovered_jobs"); got != 1 {
		t.Fatalf("recovered_jobs = %d, want 1", got)
	}
}

// TestSubmitBeforeStart: the HTTP surface serves before Start, so a job
// admitted then is also in the journal Start recovers from. It runs
// once: recovery leaves a job the service already knows alone.
func TestSubmitBeforeStart(t *testing.T) {
	e := newEnv(t, t.TempDir(), queue.Options{Workers: 1, Depth: 4}, false)
	var sub jobView
	if code, _ := e.do("POST", "/v1/jobs", strings.NewReader(table2Spec), &sub, nil); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	if err := e.svc.Start(e.ctx); err != nil {
		t.Fatal(err)
	}
	if got := e.reg.CounterTotal("serve.api.recovered_jobs"); got != 0 {
		t.Fatalf("recovered_jobs = %d, want 0", got)
	}
	e.waitDone(t, sub.Job, time.Minute)
	e.shutdown()
	for _, c := range []string{"serve.queue.admitted", "serve.queue.completed"} {
		if got := e.reg.CounterTotal(c); got != 1 {
			t.Fatalf("%s = %d, want 1", c, got)
		}
	}
}

// TestRecoverOldJournal: an envelope journaled when envelopes carried a
// tenant still loads, and its job completes.
func TestRecoverOldJournal(t *testing.T) {
	root := t.TempDir()
	a := newEnv(t, root, queue.Options{Workers: 1, Depth: 4}, false)
	var sub jobView
	if code, _ := a.do("POST", "/v1/jobs", strings.NewReader(table2Spec), &sub, nil); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	a.shutdown()
	path := filepath.Join(root, "jobs", sub.Job+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, bytes.Replace(data, []byte("{"), []byte(`{"tenant":"alice",`), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	b := newEnv(t, root, queue.Options{Workers: 1, Depth: 4}, true)
	b.waitDone(t, sub.Job, time.Minute)
	if got := b.reg.CounterTotal("serve.api.recovered_jobs"); got != 1 {
		t.Fatalf("recovered_jobs = %d, want 1", got)
	}
}

// TestObservabilitySurface: the obs plane shares the port with the API.
func TestObservabilitySurface(t *testing.T) {
	e := newEnv(t, t.TempDir(), queue.Options{Workers: 1, Depth: 4}, true)
	e.uploadProfile(t, "aes")
	resp, err := http.Get(e.url("/metrics"))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "serve_store_profiles_stored") {
		t.Fatalf("/metrics lacks store counters:\n%s", body)
	}
	var prog struct {
		Queue queue.Stats    `json:"queue"`
		Jobs  map[string]int `json:"jobs"`
	}
	code, _ := e.do("GET", "/progress", nil, &prog, nil)
	if code != http.StatusOK {
		t.Fatalf("/progress: status %d", code)
	}
	if prog.Queue.Workers != 1 {
		t.Fatalf("progress queue census: %+v", prog.Queue)
	}
}
