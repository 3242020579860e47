package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/uteda/gmap/internal/obs"
	"github.com/uteda/gmap/internal/obs/fleet"
	obstrace "github.com/uteda/gmap/internal/obs/trace"
)

// fetch GETs one URL and returns the body.
func fetch(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d\n%s", url, resp.StatusCode, body)
	}
	return string(body)
}

// TestConformanceObservability is the fleet-observability contract: a
// distributed sweep with everything on — coordinator registry, sweep
// tracer, push-only metrics federation, worker registries and tracers —
// still merges to bytes identical to the serial run, and the federated
// surfaces describe the fleet truthfully from worker pushes alone (no
// worker serves anything): /fleet/status lists every worker with a
// final push, /fleet/metrics keeps per-worker labels, and the merged
// Chrome trace joins every worker lease span to a coordinator lease
// span by lease id.
func TestConformanceObservability(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep conformance; skipped in -short")
	}
	serial := serialReport(t, "fig6a")
	for _, n := range []int{2, 4} {
		n := n
		t.Run(fmt.Sprintf("N%d", n), func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
			defer cancel()

			reg := obs.New()
			tracer := obstrace.New()
			c, err := NewCoordinator(CoordinatorOptions{
				Spec:     quickSpec("fig6a"),
				Parts:    4,
				LeaseTTL: time.Minute,
				Ledger:   filepath.Join(t.TempDir(), "ledger.jsonl"),
				Obs:      reg,
				Trace:    tracer,
				Logf:     t.Logf,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			c.SetFleet(fleet.New(fleet.Options{
				Self:     "coordinator",
				Registry: reg,
				Tracer:   tracer,
				Status:   func() interface{} { return c.StatusSnapshot() },
				Stale:    time.Minute,
			}).Handler())
			srv, err := c.Serve(ctx, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Shutdown()

			var wg sync.WaitGroup
			errs := make([]error, n)
			for i := 0; i < n; i++ {
				i := i
				wg.Add(1)
				go func() {
					defer wg.Done()
					errs[i] = RunWorker(ctx, WorkerOptions{
						Coordinator: srv.URL(),
						Name:        fmt.Sprintf("w%d", i),
						Workers:     2,
						Poll:        10 * time.Millisecond,
						Obs:         obs.New(),
						Trace:       obstrace.New(),
						Logf:        t.Logf,
					})
				}()
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("worker %d: %v", i, err)
				}
			}
			if err := c.WaitDone(ctx); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := c.WriteReport(&buf); err != nil {
				t.Fatal(err)
			}
			if buf.String() != serial {
				t.Errorf("N=%d merged report with observability on differs from serial:\n--- dist ---\n%s--- serial ---\n%s",
					n, buf.String(), serial)
			}

			// /fleet/status over the coordinator's real listener: every
			// worker made at least its final push (RunWorker flushes
			// tallies and trace on exit).
			var fs fleet.FleetStatus
			if err := json.Unmarshal([]byte(fetch(t, srv.URL()+"/fleet/status")), &fs); err != nil {
				t.Fatalf("fleet status not JSON: %v", err)
			}
			if len(fs.Workers) != n {
				t.Fatalf("fleet status lists %d workers, want %d: %+v", len(fs.Workers), n, fs.Workers)
			}
			for _, w := range fs.Workers {
				if w.Pushes == 0 {
					t.Errorf("worker %s never pushed: %+v", w.Name, w)
				}
				if !w.Final {
					t.Errorf("worker %s missing final push: %+v", w.Name, w)
				}
			}

			// /fleet/metrics keeps per-worker labels and the summed
			// aggregate for the lease counter every worker incremented.
			metrics := fetch(t, srv.URL()+"/fleet/metrics")
			for i := 0; i < n; i++ {
				if want := fmt.Sprintf(`{worker="w%d"}`, i); !strings.Contains(metrics, want) {
					t.Errorf("merged metrics missing label %s:\n%s", want, metrics)
				}
			}
			if !strings.Contains(metrics, `gmap_dist_worker_leases{worker="w0"}`) {
				t.Errorf("merged metrics missing labeled worker lease counter:\n%s", metrics)
			}

			// The merged distributed trace: the coordinator-rooted sweep
			// span, and worker lease spans whose lease ids each name a
			// coordinator lease span of the same document.
			chrome := fetch(t, srv.URL()+"/fleet/trace/chrome")
			if !json.Valid([]byte(chrome)) {
				t.Fatalf("merged chrome trace is not valid JSON:\n%.2000s", chrome)
			}
			for _, want := range []string{
				`"name":"dist.sweep"`,
				`"name":"coordinator"`,
				`"name":"w0"`,
			} {
				if !strings.Contains(chrome, want) {
					t.Errorf("merged chrome trace missing %q", want)
				}
			}
			checkLeaseJoin(t, chrome)
		})
	}
}

// checkLeaseJoin requires a merged Chrome trace to hold at least one
// dist.worker.lease span, and every one of them to carry the lease id
// of a coordinator dist.lease span in the same document and to begin
// no earlier on the shared clock: a worker opens its span after the
// coordinator granted the lease.
func checkLeaseJoin(t *testing.T, chrome string) {
	t.Helper()
	var doc struct {
		TraceEvents []struct {
			Name string                 `json:"name"`
			TS   float64                `json:"ts"`
			Args map[string]interface{} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(chrome), &doc); err != nil {
		t.Fatalf("merged chrome trace: %v", err)
	}
	granted := map[interface{}]float64{}
	for _, e := range doc.TraceEvents {
		if e.Name == "dist.lease" {
			granted[e.Args["lease"]] = e.TS
		}
	}
	workerSpans := 0
	for _, e := range doc.TraceEvents {
		if e.Name != "dist.worker.lease" {
			continue
		}
		workerSpans++
		ts, ok := granted[e.Args["lease"]]
		switch {
		case !ok:
			t.Errorf("worker lease span %v names no coordinator dist.lease span", e.Args)
		case e.TS < ts:
			t.Errorf("worker lease span %v begins at %.3f us, before its grant at %.3f us", e.Args, e.TS, ts)
		}
	}
	if workerSpans == 0 {
		t.Errorf("merged chrome trace holds no dist.worker.lease span")
	}
}
