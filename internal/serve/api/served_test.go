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
	"testing"
	"time"

	"github.com/uteda/gmap/internal/dist"
	"github.com/uteda/gmap/internal/obs"
	"github.com/uteda/gmap/internal/obs/fleet"
	obstrace "github.com/uteda/gmap/internal/obs/trace"
	"github.com/uteda/gmap/internal/serve"
	"github.com/uteda/gmap/internal/serve/api"
	"github.com/uteda/gmap/internal/serve/queue"
	"github.com/uteda/gmap/internal/serve/store"
)

// sweepSpec is the served sweep of these tests: one benchmark keeps a
// fig6 sweep at 30 jobs.
const sweepSpec = `{"kind":"sweep","experiment":"fig6a","benchmarks":["nn"],"seed":1,"scale":1,"scale_factor":4,"cores":4}`

var (
	serialOnce sync.Once
	serialText string
	serialErr  error
)

// serialFig6a is the report every served sweep of sweepSpec must
// reproduce byte for byte: gmap-eval -no-timings with the same options.
func serialFig6a(t *testing.T) string {
	t.Helper()
	serialOnce.Do(func() {
		spec := dist.SweepSpec{Experiment: "fig6a", Benchmarks: []string{"nn"}, Cores: 4}
		if serialErr = spec.Normalize(); serialErr != nil {
			return
		}
		var buf bytes.Buffer
		eo := spec.EvalOptions()
		serialErr = eo.Run(&buf, "fig6a")
		serialText = buf.String()
	})
	if serialErr != nil {
		t.Fatal(serialErr)
	}
	return serialText
}

// served is gmap-served in miniature over a real listener, with a
// registry and tracer like the binary's.
type served struct {
	root   string
	reg    *obs.Registry
	tracer *obstrace.Tracer
	srv    *serve.Server
	stop   func()
}

func startServed(t *testing.T, root string, ttl time.Duration, start bool) *served {
	t.Helper()
	reg := obs.New()
	tracer := obstrace.New()
	st, err := store.Open(root, nil, reg)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := api.New(api.Options{
		Store:        st,
		Queue:        queue.Options{Workers: 2, Depth: 8},
		SweepWorkers: 1,
		SweepParts:   4,
		LeaseTTL:     ttl,
		Obs:          reg,
		Tracer:       tracer,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	srv, err := serve.Start(ctx, "gmap-served", "127.0.0.1:0", svc.Handler())
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if start {
		if err := svc.Start(ctx); err != nil {
			cancel()
			t.Fatal(err)
		}
	}
	s := &served{root: root, reg: reg, tracer: tracer, srv: srv}
	var once sync.Once
	s.stop = func() {
		once.Do(func() {
			cancel()
			_ = srv.Shutdown()
			svc.Wait()
		})
	}
	t.Cleanup(s.stop)
	return s
}

func (s *served) get(t *testing.T, path string, out interface{}) {
	t.Helper()
	resp, err := http.Get(s.srv.URL() + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s", path, resp.StatusCode, data)
	}
	if s, ok := out.(*string); ok {
		*s = string(data)
		return
	}
	if err := json.Unmarshal(data, out); err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
}

func (s *served) submit(t *testing.T, spec string) string {
	t.Helper()
	resp, err := http.Post(s.srv.URL()+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v jobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit %s: status %d, job %+v, err %v", spec, resp.StatusCode, v, err)
	}
	return v.Job
}

// jobProgress is GET /v1/jobs/{id}/progress: while a sweep coordinates,
// its coordinator's status.
type jobProgress struct {
	Status   string       `json:"status"`
	Progress *dist.Status `json:"progress"`
}

// report waits for a sweep job and returns its rendered report. seen,
// when non-nil, receives every coordinator status polled on the way.
func (s *served) report(t *testing.T, id string, seen func(*dist.Status)) string {
	t.Helper()
	for deadline := time.Now().Add(3 * time.Minute); ; time.Sleep(20 * time.Millisecond) {
		var p jobProgress
		s.get(t, "/v1/jobs/"+id+"/progress", &p)
		if p.Progress != nil && seen != nil {
			seen(p.Progress)
		}
		if p.Status == api.StatusDone {
			break
		}
		if p.Status == api.StatusFailed || p.Status == api.StatusCanceled || time.Now().After(deadline) {
			var v jobView
			s.get(t, "/v1/jobs/"+id, &v)
			t.Fatalf("job %s: status %s (%s)", id, v.Status, v.Error)
		}
	}
	var result struct {
		Report string `json:"report"`
	}
	s.get(t, "/v1/jobs/"+id+"/result", &result)
	return result.Report
}

// remoteWorker is a gmap-eval -worker dialed into the service.
type remoteWorker struct {
	t      *testing.T
	name   string
	reg    *obs.Registry
	cancel context.CancelFunc
	exited chan struct{}
	err    error
}

// startWorker runs a remote worker against the service until stop.
func startWorker(t *testing.T, url, name string, retries int) *remoteWorker {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	w := &remoteWorker{t: t, name: name, reg: obs.New(), cancel: cancel, exited: make(chan struct{})}
	go func() {
		w.err = dist.RunWorker(ctx, dist.WorkerOptions{
			Coordinator: url,
			Name:        name,
			Workers:     1,
			// A wait grant does not pace the worker; its own poll does,
			// and it must ask again within a sweep of about half a second.
			// A failed request is retried at the same poll, retries times
			// (0: the default, a minute of them).
			Poll:    50 * time.Millisecond,
			Retries: retries,
			Obs:     w.reg,
			Trace:   obstrace.New(),
			Logf:    t.Logf,
		})
		close(w.exited)
	}()
	t.Cleanup(func() { _ = w.stop() })
	return w
}

// running reports whether the worker is still up, failing the test if
// it is not.
func (w *remoteWorker) running() bool {
	select {
	case <-w.exited:
		w.t.Errorf("worker %s exited: %v", w.name, w.err)
		return false
	default:
		return true
	}
}

func (w *remoteWorker) stop() error {
	w.cancel()
	<-w.exited
	if errors.Is(w.err, context.Canceled) {
		return nil
	}
	return w.err
}

// fleetWorkers returns /fleet/status's worker entries by name.
func (s *served) fleetWorkers(t *testing.T) map[string]fleet.WorkerHealth {
	t.Helper()
	var fs fleet.FleetStatus
	s.get(t, "/fleet/status", &fs)
	m := make(map[string]fleet.WorkerHealth)
	for _, w := range fs.Workers {
		m[w.Name] = w
	}
	return m
}

// TestServedSweepMatchesSerial: every served sweep runs through its own
// coordinator with the server as first worker, and its report is
// byte-identical to a serial eval run with no remote worker, one, or
// two. The service's own sweep work records into its registry and
// tracer, the service never lists itself as a fleet worker,
// /fleet/metrics counts its registry once, and the retired job leaves
// nothing in checkpoints/.
func TestServedSweepMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("served sweeps are seconds-long; skipped in -short")
	}
	serial := serialFig6a(t)
	for _, remote := range []int{0, 1, 2} {
		remote := remote
		t.Run(fmt.Sprintf("remote=%d", remote), func(t *testing.T) {
			s := startServed(t, t.TempDir(), time.Second, true)
			var workers []*remoteWorker
			for i := 0; i < remote; i++ {
				workers = append(workers, startWorker(t, s.srv.URL(), fmt.Sprintf("w%d", i), 0))
			}
			id := s.submit(t, sweepSpec)
			joined := map[string]bool{}
			report := s.report(t, id, func(st *dist.Status) {
				for _, w := range st.Workers {
					joined[w.Name] = true
				}
			})
			if report != serial {
				t.Fatalf("served report differs from serial:\n--- served ---\n%s--- serial ---\n%s", report, serial)
			}
			if !joined["in-process"] {
				t.Errorf("coordinator status never listed the in-process worker: %v", joined)
			}
			var leases uint64
			for _, w := range workers {
				if !joined[w.name] {
					t.Errorf("coordinator status never listed %s: %v", w.name, joined)
				}
				leases += w.reg.CounterTotal("dist.worker.leases")
				w.running()
			}
			if remote > 0 && leases == 0 {
				t.Error("no remote worker took a lease")
			}

			members := s.fleetWorkers(t)
			if _, ok := members["in-process"]; ok || len(members) != remote {
				t.Errorf("/fleet/status workers = %+v, want the %d remote worker(s) only", members, remote)
			}
			if remote > 0 {
				return
			}
			snap := s.reg.Snapshot()
			if n := snap.Counters["runner.jobs_done"]; n != 30 {
				t.Errorf("service registry runner.jobs_done = %d, want 30", n)
			}
			for _, h := range []string{"phase.profile.coalesce.ns", "phase.synth.generate.ns"} {
				if snap.Histograms[h].Count == 0 {
					t.Errorf("service registry has no %s observations", h)
				}
			}
			spans := map[string]int{}
			for _, e := range s.tracer.Events() {
				spans[e.Name]++
			}
			for _, name := range []string{"dist.sweep", "dist.lease", "dist.worker.lease", "eval.fig6a", "eval.prepare"} {
				if spans[name] == 0 {
					t.Errorf("service tracer holds no %s span: %v", name, spans)
				}
			}
			var metrics string
			s.get(t, "/fleet/metrics", &metrics)
			var labeled []string
			for _, line := range strings.Split(metrics, "\n") {
				if strings.HasPrefix(line, "gmap_runner_jobs_done") {
					labeled = append(labeled, line)
				}
			}
			want := []string{`gmap_runner_jobs_done{worker="gmap-served"} 30`, "gmap_runner_jobs_done 30"}
			if strings.Join(labeled, "\n") != strings.Join(want, "\n") {
				t.Errorf("/fleet/metrics runner_jobs_done lines = %q, want %q", labeled, want)
			}

			// Stopping drains the queue, so the job is retired: none of its
			// checkpoint files (ledger, epoch) outlive it.
			s.stop()
			entries, err := os.ReadDir(filepath.Join(s.root, "checkpoints"))
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if strings.HasPrefix(e.Name(), id) {
					t.Errorf("checkpoints/%s outlived its retired job", e.Name())
				}
			}
		})
	}
}

// TestServedWorkerOutlivesSweeps: a remote worker dialed into an idle
// service waits instead of spending its retry budget on it, takes part
// in two consecutive sweeps — listed in each coordinator's status — and
// is still running afterwards.
func TestServedWorkerOutlivesSweeps(t *testing.T) {
	if testing.Short() {
		t.Skip("served sweeps are seconds-long; skipped in -short")
	}
	serial := serialFig6a(t)
	s := startServed(t, t.TempDir(), time.Second, true)
	w := startWorker(t, s.srv.URL(), "w0", 1)

	// With one retry a 50ms poll later, a worker refused by the idle
	// service would be gone long before this.
	time.Sleep(500 * time.Millisecond)
	if !w.running() {
		t.FailNow()
	}
	for i, spec := range []string{sweepSpec, strings.Replace(sweepSpec, `"seed":1`, `"seed":2`, 1)} {
		id := s.submit(t, spec)
		listed := false
		report := s.report(t, id, func(st *dist.Status) {
			for _, w := range st.Workers {
				listed = listed || w.Name == "w0"
			}
		})
		if i == 0 && report != serial {
			t.Errorf("sweep 1 report differs from serial:\n--- served ---\n%s--- serial ---\n%s", report, serial)
		}
		if !listed {
			t.Errorf("sweep %d: coordinator status never listed w0", i+1)
		}
		if !w.running() {
			t.Fatalf("worker exited after sweep %d", i+1)
		}
	}
	if err := w.stop(); err != nil {
		t.Fatalf("worker: %v", err)
	}
}

// TestServedSweepResumes: a sweep interrupted by a server stop, or left
// half-done in its checkpoint by a local eval run — what stores written
// by a service that still ran sweeps on a local executor hold — resumes
// over the same store, restores the merged points, and renders the
// serial report.
func TestServedSweepResumes(t *testing.T) {
	if testing.Short() {
		t.Skip("served sweeps are seconds-long; skipped in -short")
	}
	serial := serialFig6a(t)

	t.Run("restart", func(t *testing.T) {
		root := t.TempDir()
		a := startServed(t, root, 2*time.Second, true)
		id := a.submit(t, sweepSpec)
		for deadline := time.Now().Add(time.Minute); ; time.Sleep(5 * time.Millisecond) {
			var p jobProgress
			a.get(t, "/v1/jobs/"+id+"/progress", &p)
			if p.Progress != nil && p.Progress.DoneJobs > 0 {
				break
			}
			if p.Status != api.StatusQueued && p.Status != api.StatusRunning || time.Now().After(deadline) {
				t.Fatalf("job %s reached %s before any point merged", id, p.Status)
			}
		}
		a.stop()

		b := startServed(t, root, 2*time.Second, true)
		if report := b.report(t, id, nil); report != serial {
			t.Fatalf("resumed report differs from serial:\n--- served ---\n%s--- serial ---\n%s", report, serial)
		}
		if n := b.reg.CounterTotal("dist.ledger_restored"); n == 0 {
			t.Error("the restarted sweep restored no merged point")
		}
	})

	t.Run("local-checkpoint", func(t *testing.T) {
		root := t.TempDir()
		a := startServed(t, root, 2*time.Second, false)
		id := a.submit(t, sweepSpec)
		a.stop()

		// A local eval run over the job's checkpoint, stopped after five
		// points, as the old local executor left it on a shutdown.
		spec := dist.SweepSpec{Experiment: "fig6a", Benchmarks: []string{"nn"}, Cores: 4}
		if err := spec.Normalize(); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		points := 0
		eo := spec.EvalOptions()
		eo.Workers = 1
		eo.Checkpoint = filepath.Join(root, "checkpoints", id+".ckpt")
		eo.Resume = true
		eo.Context = ctx
		eo.ResultSink = func(string, json.RawMessage, time.Duration) error {
			if points++; points == 5 {
				cancel()
			}
			return nil
		}
		if err := eo.Run(io.Discard, "fig6a"); err == nil {
			t.Fatal("the interrupted local run finished")
		}
		if _, err := os.Stat(eo.Checkpoint); err != nil {
			t.Fatal(err)
		}

		b := startServed(t, root, 2*time.Second, true)
		if report := b.report(t, id, nil); report != serial {
			t.Fatalf("report over a local checkpoint differs from serial:\n--- served ---\n%s--- serial ---\n%s", report, serial)
		}
		if n := b.reg.CounterTotal("dist.ledger_restored"); n < 5 {
			t.Errorf("dist.ledger_restored = %d, want the local run's 5 or more points", n)
		}
	})
}
