package fleet

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/uteda/gmap/internal/obs"
	obstrace "github.com/uteda/gmap/internal/obs/trace"
)

func snapWith(counters map[string]uint64) *obs.Snapshot {
	return &obs.Snapshot{Counters: counters}
}

func get(t *testing.T, h http.Handler, path string) (*http.Response, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	res := rec.Result()
	return res, rec.Body.String()
}

// TestMetricsLabelMergeSums is the federation merge contract: two
// workers reporting the same counter name must keep distinct labeled
// samples and sum — not clobber — in the unlabeled aggregate.
func TestMetricsLabelMergeSums(t *testing.T) {
	reg := obs.New()
	reg.Counter("dist.jobs_done").Add(5)
	f := New(Options{Self: "coordinator", Registry: reg})
	for name, v := range map[string]uint64{"w0": 3, "w1": 4} {
		if err := f.Record(PushRequest{
			Worker:   name,
			Snapshot: snapWith(map[string]uint64{"dist.jobs_done": v}),
		}); err != nil {
			t.Fatal(err)
		}
	}
	res, body := get(t, f.Handler(), "/fleet/metrics")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", res.StatusCode)
	}
	for _, want := range []string{
		"# TYPE gmap_dist_jobs_done counter",
		`gmap_dist_jobs_done{worker="coordinator"} 5`,
		`gmap_dist_jobs_done{worker="w0"} 3`,
		`gmap_dist_jobs_done{worker="w1"} 4`,
		"gmap_dist_jobs_done 12", // summed aggregate, not last-writer-wins
	} {
		if !strings.Contains(body, want) {
			t.Errorf("missing %q in:\n%s", want, body)
		}
	}
	if strings.Count(body, "# TYPE gmap_dist_jobs_done counter") != 1 {
		t.Errorf("duplicate TYPE line for merged family:\n%s", body)
	}
}

// TestFleetMetricsGolden freezes the merged /fleet/metrics exposition:
// an owner and two workers sharing a counter, a gauge whose maximum
// differs from its value, histograms whose buckets merge by inclusive
// bound, and series (owner and worker) that a fleet exposition leaves
// out. GMAP_UPDATE_GOLDEN=1 re-records testdata/fleet_metrics.txt.
func TestFleetMetricsGolden(t *testing.T) {
	owner := obs.New()
	owner.Counter("dist.jobs_done").Add(5)
	owner.Counter("dist.leases").Add(2)
	owner.Gauge("dist.live_leases").Set(3)
	owner.Histogram("http.dist.latency_ns").Observe(900)
	owner.Sampler("ipc", 8).Sample(0, 0.5)
	f := New(Options{Self: "coordinator", Registry: owner})

	w0 := obs.New()
	w0.Counter("dist.jobs_done").Add(3)
	w0.Counter("runner.jobs_done").Add(7)
	g := w0.Gauge("runner.workers")
	g.Set(6)
	g.Set(2)
	for _, v := range []uint64{0, 3, 5, 100} {
		w0.Histogram("runner.job_ns").Observe(v)
	}
	w1 := obs.New()
	w1.Counter("dist.jobs_done").Add(4)
	w1.Gauge("runner.workers").Set(4)
	for _, v := range []uint64{4, 100, 5000} {
		w1.Histogram("runner.job_ns").Observe(v)
	}
	w1.Sampler("memsim.ipc", 8).Sample(0, 1.25)
	for name, r := range map[string]*obs.Registry{"w0": w0, "w1": w1} {
		snap := r.Snapshot()
		if err := f.Record(PushRequest{Worker: name, Snapshot: &snap}); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := f.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "series") {
		t.Errorf("fleet exposition carries a series:\n%s", buf.String())
	}
	golden(t, "fleet_metrics.txt", buf.Bytes())
}

func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("GMAP_UPDATE_GOLDEN") == "1" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with GMAP_UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s mismatch:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestMetricsMergesGaugesAndHistograms(t *testing.T) {
	mk := func(val, max int64, obsv uint64) *obs.Snapshot {
		r := obs.New()
		r.Gauge("queue.depth").Set(val)
		if max > val {
			r.Gauge("queue.depth").Set(max)
			r.Gauge("queue.depth").Set(val)
		}
		r.Histogram("lat").Observe(obsv)
		s := r.Snapshot()
		return &s
	}
	f := New(Options{})
	f.Record(PushRequest{Worker: "w0", Snapshot: mk(2, 6, 100)})
	f.Record(PushRequest{Worker: "w1", Snapshot: mk(3, 3, 100)})
	var buf bytes.Buffer
	if err := f.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, want := range []string{
		`gmap_queue_depth{worker="w0"} 2`,
		`gmap_queue_depth{worker="w1"} 3`,
		"gmap_queue_depth 5",     // gauge values sum
		"gmap_queue_depth_max 6", // maxima take the max
		`gmap_lat_count{worker="w0"} 1`,
		"gmap_lat_count 2",
		"gmap_lat_sum 200",
		`gmap_lat_bucket{le="127"} 2`, // same bucket from both workers merges
	} {
		if !strings.Contains(body, want) {
			t.Errorf("missing %q in:\n%s", want, body)
		}
	}
}

// TestPushFoldsWorkerIn: a worker's non-final push folds its whole
// snapshot into the merged exposition. The federator keeps no worker
// table of its own: /fleet/status is not served.
func TestPushFoldsWorkerIn(t *testing.T) {
	f := New(Options{})
	body, err := json.Marshal(PushRequest{
		Worker:   "w0",
		Snapshot: snapWith(map[string]uint64{"dist.worker.jobs": 7}),
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	f.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/fleet/push", bytes.NewReader(body)))
	if rec.Code != http.StatusNoContent {
		t.Fatalf("push = %d: %s", rec.Code, rec.Body.String())
	}
	if _, metrics := get(t, f.Handler(), "/fleet/metrics"); !strings.Contains(metrics, `gmap_dist_worker_jobs{worker="w0"} 7`) {
		t.Fatalf("pushed metrics missing:\n%s", metrics)
	}
	if res, body := get(t, f.Handler(), "/fleet/status"); res.StatusCode != http.StatusNotFound {
		t.Fatalf("/fleet/status = %d %q, want 404", res.StatusCode, body)
	}
}

// TestFinalSurvivesLatePush: a non-final push that lands after the
// worker's final report — a heartbeat push that timed out on the worker
// but still arrived — must not replace the final snapshot or span log.
func TestFinalSurvivesLatePush(t *testing.T) {
	wrk := obstrace.New()
	wrk.Root("dist.worker.lease").End()
	f := New(Options{})
	if err := f.Record(PushRequest{
		Worker:   "w0",
		Final:    true,
		Snapshot: snapWith(map[string]uint64{"dist.worker.jobs": 9}),
		Trace:    wrk.Events(),
	}); err != nil {
		t.Fatal(err)
	}
	if err := f.Record(PushRequest{
		Worker:   "w0",
		Snapshot: snapWith(map[string]uint64{"dist.worker.jobs": 3}),
	}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `gmap_dist_worker_jobs{worker="w0"} 9`) {
		t.Fatalf("final report replaced by a later non-final push:\n%s", buf.String())
	}
	if procs := f.traceProcesses(); len(procs) != 1 || len(procs[0].Events) == 0 {
		t.Fatalf("final span log lost: %+v", procs)
	}
}

func TestMergedTraceExport(t *testing.T) {
	coord := obstrace.New()
	sweep := coord.Root("dist.sweep")
	lease := sweep.ChildTrack("dist.lease", obstrace.String("lease", "lease-1-0001"))

	wrk := obstrace.New()
	ws := wrk.Root("dist.worker.lease", obstrace.String("lease", "lease-1-0001"))
	ws.End()
	lease.End()
	sweep.End()

	f := New(Options{Self: "coordinator", Tracer: coord})
	push, err := json.Marshal(PushRequest{Worker: "w0", Final: true, Trace: wrk.Events()})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	f.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/fleet/push", bytes.NewReader(push)))
	if rec.Code != http.StatusNoContent {
		t.Fatalf("push = %d: %s", rec.Code, rec.Body.String())
	}
	res, body := get(t, f.Handler(), "/fleet/trace/chrome")
	if res.StatusCode != http.StatusOK || !json.Valid([]byte(body)) {
		t.Fatalf("merged export: status %d, body:\n%s", res.StatusCode, body)
	}
	for _, want := range []string{
		`"name":"coordinator"`,
		`"name":"w0"`,
		`"name":"dist.worker.lease"`,
		`"lease":"lease-1-0001"`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("merged export missing %q:\n%s", want, body)
		}
	}
}

// clockAt returns a tracer clock that reads creation on its first call,
// which NewWithOptions makes to set the tracer's origin, and later on
// every call after.
func clockAt(creation, later time.Time) func() time.Time {
	calls := 0
	return func() time.Time {
		calls++
		if calls == 1 {
			return creation
		}
		return later
	}
}

// TestMergedTraceSharesOwnerClock: each tracer counts start_us from its
// own creation, so a worker tracer created 5 s after the owner's would
// show a span begun at the same instant 5 s early. The pushed origin
// puts both on the owner's clock: equal instants get equal ts.
func TestMergedTraceSharesOwnerClock(t *testing.T) {
	t0 := time.Unix(1_700_000_000, 0)
	at := t0.Add(6 * time.Second)
	owner := obstrace.NewWithOptions(obstrace.Options{Now: clockAt(t0, at)})
	owner.Root("owner.span").End()
	wrk := obstrace.NewWithOptions(obstrace.Options{Now: clockAt(t0.Add(5*time.Second), at)})
	wrk.Root("worker.span").End()

	f := New(Options{Tracer: owner})
	if err := f.Record(PushRequest{
		Worker:            "w0",
		Trace:             wrk.Events(),
		TraceOriginUnixNS: wrk.Origin().UnixNano(),
	}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string          `json:"name"`
			TS   json.RawMessage `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("%v:\n%s", err, buf.String())
	}
	ts := map[string]string{}
	for _, e := range doc.TraceEvents {
		ts[e.Name] = string(e.TS)
	}
	if ts["owner.span"] != "6000000.000" || ts["worker.span"] != ts["owner.span"] {
		t.Fatalf("owner span at ts %s, worker span at ts %s; want both at 6000000.000", ts["owner.span"], ts["worker.span"])
	}

	// A push without an origin merges unshifted.
	if err := f.Record(PushRequest{Worker: "w0", Trace: wrk.Events()}); err != nil {
		t.Fatal(err)
	}
	if procs := f.traceProcesses(); procs[1].Events[0].StartUS != 1e6 {
		t.Fatalf("origin-less push: worker span at %v us, want 1e6", procs[1].Events[0].StartUS)
	}
}

func TestPushEndpoint(t *testing.T) {
	f := New(Options{})
	body, _ := json.Marshal(PushRequest{
		Worker:   "w0",
		Final:    true,
		Snapshot: snapWith(map[string]uint64{"dist.x": 1}),
	})
	rec := httptest.NewRecorder()
	f.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/fleet/push", bytes.NewReader(body)))
	if rec.Code != http.StatusNoContent {
		t.Fatalf("push = %d: %s", rec.Code, rec.Body.String())
	}
	rec = httptest.NewRecorder()
	f.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/fleet/push", strings.NewReader("{}")))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("nameless push = %d, want 400", rec.Code)
	}
	// An older worker still announcing its exposition URL is accepted:
	// the decoder ignores unknown fields.
	rec = httptest.NewRecorder()
	f.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/fleet/push",
		strings.NewReader(`{"worker":"w1","url":"http://127.0.0.1:9300"}`)))
	if rec.Code != http.StatusNoContent {
		t.Fatalf("push with legacy url field = %d: %s", rec.Code, rec.Body.String())
	}
	// A span attribute is a string, number, bool or null: a pushed event
	// with an object or array value is refused, naming the key.
	rec = httptest.NewRecorder()
	f.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/fleet/push",
		strings.NewReader(`{"worker":"w2","trace":[{"id":1,"name":"x","attrs":{"a":{"b":1},"c":2}}]}`)))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), `attr "a"`) {
		t.Fatalf("push with an object attribute = %d %q, want 400 naming attr \"a\"", rec.Code, rec.Body.String())
	}
	if len(f.workers) != 2 || !f.workers["w0"].final || f.workers["w1"] == nil {
		t.Fatalf("pushes not recorded: %+v", f.workers)
	}
}

func TestNilFederatorNoOps(t *testing.T) {
	var f *Federator
	if err := f.Record(PushRequest{Worker: "w"}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.WriteMetrics(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil federator metrics = %q, %v; want nothing", buf.String(), err)
	}
	buf.Reset()
	if err := f.WriteTrace(&buf); err != nil || !json.Valid(buf.Bytes()) {
		t.Fatalf("nil federator trace = %q, %v; want a valid empty trace", buf.String(), err)
	}
}
