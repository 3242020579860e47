package fleet

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
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

// TestPushFoldsWorkerIn: a worker's non-final push lists it live, with
// its dist.* counters surfaced in /fleet/status and its whole snapshot
// in the merged exposition.
func TestPushFoldsWorkerIn(t *testing.T) {
	f := New(Options{
		Status: func() interface{} { return map[string]int{"parts": 4} },
	})
	if err := f.Record(PushRequest{
		Worker:   "w0",
		Snapshot: snapWith(map[string]uint64{"dist.worker.jobs": 7}),
	}); err != nil {
		t.Fatal(err)
	}

	fs := f.StatusSnapshot()
	if len(fs.Workers) != 1 {
		t.Fatalf("workers = %+v", fs.Workers)
	}
	w := fs.Workers[0]
	if w.Name != "w0" || w.Stale || w.Final || w.Pushes != 1 {
		t.Fatalf("worker health = %+v", w)
	}
	if w.Counters["dist.worker.jobs"] != 7 {
		t.Fatalf("dist counters not surfaced: %+v", w.Counters)
	}
	if fs.Dist == nil {
		t.Fatal("owner status document missing")
	}

	var buf bytes.Buffer
	f.WriteMetrics(&buf)
	if !strings.Contains(buf.String(), `gmap_dist_worker_jobs{worker="w0"} 7`) {
		t.Fatalf("pushed metrics missing:\n%s", buf.String())
	}
}

// TestFinalSurvivesLatePush: a non-final push that lands after the
// worker's final report — a heartbeat push that timed out on the worker
// but still arrived — must not replace the final snapshot or span log,
// nor make the finished worker look live again.
func TestFinalSurvivesLatePush(t *testing.T) {
	wrk := obstrace.New()
	wrk.Root("dist.worker.lease").End()
	var jsonl bytes.Buffer
	if err := wrk.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	f := New(Options{Stale: time.Millisecond})
	if err := f.Record(PushRequest{
		Worker:     "w0",
		Final:      true,
		Snapshot:   snapWith(map[string]uint64{"dist.worker.jobs": 9}),
		TraceJSONL: jsonl.String(),
	}); err != nil {
		t.Fatal(err)
	}
	if err := f.Record(PushRequest{
		Worker:   "w0",
		Snapshot: snapWith(map[string]uint64{"dist.worker.jobs": 3}),
	}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)

	fs := f.StatusSnapshot()
	if len(fs.Workers) != 1 {
		t.Fatalf("workers = %+v", fs.Workers)
	}
	if w := fs.Workers[0]; !w.Final || w.Stale || w.Pushes != 1 || w.Counters["dist.worker.jobs"] != 9 {
		t.Fatalf("final report replaced by a later non-final push: %+v", w)
	}
	if procs := f.traceProcesses(); len(procs) != 1 || len(procs[0].Events) == 0 {
		t.Fatalf("final span log lost: %+v", procs)
	}
}

func TestStaleness(t *testing.T) {
	f := New(Options{Stale: time.Millisecond})
	f.Record(PushRequest{Worker: "gone"})
	f.Record(PushRequest{Worker: "done", Final: true})
	time.Sleep(5 * time.Millisecond)
	fs := f.StatusSnapshot()
	byName := map[string]WorkerHealth{}
	for _, w := range fs.Workers {
		byName[w.Name] = w
	}
	if !byName["gone"].Stale {
		t.Error("silent worker not marked stale")
	}
	if byName["done"].Stale || !byName["done"].Final {
		t.Error("finished worker wrongly marked stale")
	}
}

func TestMergedTraceExport(t *testing.T) {
	coord := obstrace.New()
	sweep := coord.Root("dist.sweep")
	lease := sweep.ChildTrack("dist.lease")
	sc := lease.Context()

	wrk := obstrace.New()
	ws := wrk.RemoteChild(sc, "dist.worker.lease")
	ws.End()
	lease.End()
	sweep.End()
	var jsonl bytes.Buffer
	if err := wrk.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}

	f := New(Options{Self: "coordinator", Tracer: coord})
	if err := f.Record(PushRequest{Worker: "w0", Final: true, TraceJSONL: jsonl.String()}); err != nil {
		t.Fatal(err)
	}
	res, body := get(t, f.Handler(), "/fleet/trace/chrome")
	if res.StatusCode != http.StatusOK || !json.Valid([]byte(body)) {
		t.Fatalf("merged export: status %d, body:\n%s", res.StatusCode, body)
	}
	for _, want := range []string{
		`"name":"coordinator"`,
		`"name":"w0"`,
		`"name":"dist.worker.lease"`,
		`"trace_id":"` + coord.TraceID() + `"`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("merged export missing %q:\n%s", want, body)
		}
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
	if fs := f.StatusSnapshot(); fs.Pushes != 2 || !fs.Workers[0].Final || fs.Workers[1].Name != "w1" {
		t.Fatalf("pushes not recorded: %+v", fs)
	}
}

func TestStatusEndpointJSON(t *testing.T) {
	f := New(Options{Self: "coordinator"})
	res, body := get(t, f.Handler(), "/fleet/status")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", res.StatusCode)
	}
	var fs FleetStatus
	if err := json.Unmarshal([]byte(body), &fs); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, body)
	}
	// Staleness defaults to the coordinator's default lease TTL.
	if fs.Self != "coordinator" || fs.StaleAfterNS != (30*time.Second).Nanoseconds() {
		t.Fatalf("status doc = %+v", fs)
	}
}

func TestNilFederatorNoOps(t *testing.T) {
	var f *Federator
	if err := f.Record(PushRequest{Worker: "w"}); err != nil {
		t.Fatal(err)
	}
	if fs := f.StatusSnapshot(); len(fs.Workers) != 0 {
		t.Fatal("nil federator grew state")
	}
	var buf bytes.Buffer
	if err := f.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestRenderStatusFrame(t *testing.T) {
	dist, _ := json.Marshal(map[string]interface{}{
		"experiment": "fig6a", "epoch": 2, "total_jobs": 30, "done_jobs": 12,
		"parts": 4, "done_parts": 1, "live_leases": 2,
		"partitions": []map[string]interface{}{
			{"part": 0, "keys": 8, "remaining": 3, "lease": "lease-2-0004",
				"worker": "w0", "lease_age_ns": 1500000000},
		},
	})
	doc := statusDoc{
		Self: "coordinator", Pushes: 9,
		Workers: []WorkerHealth{
			{Name: "w1", Stale: true},
			{Name: "w0", LastSeenUnixNS: 1, AgeNS: int64(time.Second), Pushes: 7},
		},
		Dist: dist,
	}
	var buf bytes.Buffer
	RenderStatus(&buf, doc)
	out := buf.String()
	for _, want := range []string{
		"sweep fig6a  epoch 2", "jobs 12/30", "lease-2-0004", "1.5s",
		"pushes 9", "STALE", "1s ago",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("frame missing %q:\n%s", want, out)
		}
	}
	if strings.Index(out, "w0") > strings.Index(out, "w1") {
		t.Errorf("workers not sorted:\n%s", out)
	}
}
