package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/uteda/gmap/internal/obs"
	"github.com/uteda/gmap/internal/obs/fleet"
	obstrace "github.com/uteda/gmap/internal/obs/trace"
	"github.com/uteda/gmap/internal/serve"
	"github.com/uteda/gmap/internal/serve/api"
	"github.com/uteda/gmap/internal/serve/queue"
	"github.com/uteda/gmap/internal/serve/store"
)

// servedEnv is gmap-served -dist-sweeps in miniature: a service whose
// sweep jobs go to a Delegate first, with the fleet federator mounted
// on the service mux, serving on a real listener.
type servedEnv struct {
	root string
	reg  *obs.Registry
	srv  *serve.Server
	stop func()
}

func startServed(t *testing.T, deadline time.Duration) *servedEnv {
	t.Helper()
	root := t.TempDir()
	reg := obs.New()
	tracer := obstrace.New()
	st, err := store.Open(root, nil, reg)
	if err != nil {
		t.Fatal(err)
	}
	delegate := NewDelegate(DelegateOptions{
		Parts:    2,
		LeaseTTL: time.Minute,
		Deadline: deadline,
		Obs:      reg,
		Trace:    tracer,
		Logf:     t.Logf,
	})
	svc, err := api.New(api.Options{
		Store:         st,
		Queue:         queue.Options{Workers: 1, Depth: 4},
		SweepWorkers:  1,
		Obs:           reg,
		Tracer:        tracer,
		SweepDelegate: delegate,
	})
	if err != nil {
		t.Fatal(err)
	}
	svc.SetFleet(fleet.New(fleet.Options{
		Self:     "gmap-served",
		Registry: reg,
		Tracer:   tracer,
		Status:   func() interface{} { return delegate.Status() },
		Stale:    time.Minute,
	}).Handler())
	ctx, cancel := context.WithCancel(context.Background())
	srv, err := serve.Start(ctx, "gmap-served", "127.0.0.1:0", svc.Handler())
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if err := svc.Start(ctx); err != nil {
		cancel()
		t.Fatal(err)
	}
	e := &servedEnv{root: root, reg: reg, srv: srv}
	e.stop = func() {
		cancel()
		_ = srv.Shutdown()
		svc.Wait()
	}
	t.Cleanup(e.stop)
	return e
}

// sweep submits spec, waits for the job to finish and returns its id
// and rendered report.
func (e *servedEnv) sweep(t *testing.T, spec api.JobSpec) (string, string) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(e.srv.URL()+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var job struct {
		Job    string `json:"job"`
		Status string `json:"status"`
		Error  string `json:"error"`
	}
	err = json.NewDecoder(resp.Body).Decode(&job)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, job %+v, err %v", resp.StatusCode, job, err)
	}
	id := job.Job
	for deadline := time.Now().Add(3 * time.Minute); job.Status != api.StatusDone; time.Sleep(20 * time.Millisecond) {
		if err := json.Unmarshal([]byte(fetch(t, e.srv.URL()+"/v1/jobs/"+id)), &job); err != nil {
			t.Fatal(err)
		}
		if job.Status == api.StatusFailed || job.Status == api.StatusCanceled || time.Now().After(deadline) {
			t.Fatalf("job %s: status %s (%s)", id, job.Status, job.Error)
		}
	}
	var result struct {
		Report string `json:"report"`
	}
	if err := json.Unmarshal([]byte(fetch(t, e.srv.URL()+"/v1/jobs/"+id+"/result")), &result); err != nil {
		t.Fatal(err)
	}
	return id, result.Report
}

// assertRetired stops the service — draining the queue, so the finished
// job has been retired — and checks that none of the job's checkpoint
// files (ledger, epoch, lease journal) outlived it.
func (e *servedEnv) assertRetired(t *testing.T, id string) {
	t.Helper()
	e.stop()
	entries, err := os.ReadDir(filepath.Join(e.root, "checkpoints"))
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		if strings.HasPrefix(ent.Name(), id) {
			t.Errorf("checkpoints/%s outlived its retired job", ent.Name())
		}
	}
}

// TestServedDistSweeps covers gmap-served -dist-sweeps end to end in
// process. With a worker dialing the service's own URL, the delegated
// sweep's report is byte-identical to serial with no fallback, and the
// worker's final push shows on /fleet/status. With no worker, the
// no-progress deadline falls back to local execution — still byte-
// identical — and the retired job leaves nothing in checkpoints/.
func TestServedDistSweeps(t *testing.T) {
	if testing.Short() {
		t.Skip("delegated sweep e2e is seconds-long; skipped in -short")
	}
	serial := serialReport(t, "fig6a")

	t.Run("worker", func(t *testing.T) {
		e := startServed(t, time.Minute)
		wctx, wcancel := context.WithCancel(context.Background())
		defer wcancel()
		werr := make(chan error, 1)
		go func() {
			werr <- RunWorker(wctx, WorkerOptions{
				Coordinator: e.srv.URL(),
				Name:        "w0",
				Workers:     1,
				Poll:        10 * time.Millisecond,
				Obs:         obs.New(),
				Trace:       obstrace.New(),
				Logf:        t.Logf,
			})
		}()
		id, report := e.sweep(t, quickSpec("fig6a"))
		if report != serial {
			t.Errorf("delegated report differs from serial:\n--- served ---\n%s--- serial ---\n%s", report, serial)
		}
		if n := e.reg.CounterTotal("serve.api.sweep_delegate_fallbacks"); n != 0 {
			t.Errorf("sweep_delegate_fallbacks = %d, want 0", n)
		}
		if n := e.reg.CounterTotal("dist.delegate_sweeps"); n != 1 {
			t.Errorf("delegate_sweeps = %d, want 1", n)
		}

		// With no sweep left to coordinate the worker would retry 503s;
		// stop it, and its final report lands on the service's fleet view.
		wcancel()
		if err := <-werr; err != nil && wctx.Err() == nil {
			t.Fatalf("worker: %v", err)
		}
		var fs fleet.FleetStatus
		if err := json.Unmarshal([]byte(fetch(t, e.srv.URL()+"/fleet/status")), &fs); err != nil {
			t.Fatal(err)
		}
		if len(fs.Workers) != 1 || fs.Workers[0].Name != "w0" || !fs.Workers[0].Final || fs.Workers[0].Pushes == 0 {
			t.Errorf("/fleet/status workers = %+v, want w0 with a final push", fs.Workers)
		}
		e.assertRetired(t, id)
	})

	t.Run("fallback", func(t *testing.T) {
		e := startServed(t, 200*time.Millisecond)
		id, report := e.sweep(t, quickSpec("fig6a"))
		if report != serial {
			t.Errorf("fallback report differs from serial:\n--- served ---\n%s--- serial ---\n%s", report, serial)
		}
		if n := e.reg.CounterTotal("serve.api.sweep_delegate_fallbacks"); n != 1 {
			t.Errorf("sweep_delegate_fallbacks = %d, want 1", n)
		}
		e.assertRetired(t, id)
	})
}
