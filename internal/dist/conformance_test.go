package dist

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/uteda/gmap/internal/obs"
)

// quickSpec is the sweep spec the conformance suite distributes: one
// benchmark keeps a full fig6 sweep at 30 jobs.
func quickSpec(experiment string) SweepSpec {
	return SweepSpec{
		Experiment:  experiment,
		Benchmarks:  []string{"nn"},
		Scale:       1,
		ScaleFactor: 4,
		Seed:        1,
		Cores:       4,
	}
}

// serialReport runs the sweep in-process, single-node — the reference
// bytes every distributed execution must reproduce.
func serialReport(t *testing.T, experiment string) string {
	t.Helper()
	spec := quickSpec(experiment)
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	eo := spec.EvalOptions()
	if err := eo.Run(&buf, experiment); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// distReport runs the sweep through a real coordinator over real HTTP
// with n concurrent worker processes-in-miniature, and returns the
// merged report plus the coordinator (still open) for post-mortems.
func distReport(t *testing.T, experiment string, n int) (string, *Coordinator) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	c, err := NewCoordinator(CoordinatorOptions{
		Spec:     quickSpec(experiment),
		Parts:    4,
		LeaseTTL: time.Minute,
		Ledger:   filepath.Join(t.TempDir(), "ledger.jsonl"),
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
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
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.WriteReport(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String(), c
}

// TestConformanceFig6a is the tentpole contract: the fig6a sweep split
// across N ∈ {1,2,4} workers over real HTTP merges to bytes identical
// to the serial run, and the replay's obs snapshot is identical across
// N too.
func TestConformanceFig6a(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep conformance; skipped in -short")
	}
	serial := serialReport(t, "fig6a")
	var snapshots []string
	for _, n := range []int{1, 2, 4} {
		got, c := distReport(t, "fig6a", n)
		if got != serial {
			t.Errorf("N=%d merged report differs from serial:\n--- dist ---\n%s--- serial ---\n%s", n, got, serial)
		}
		st := c.StatusSnapshot()
		if !st.Done || st.DoneJobs != 30 {
			t.Errorf("N=%d status %+v, want done with 30 jobs", n, st)
		}

		// Obs identity: a registry observing the merged-ledger replay
		// must serialize identically no matter how many workers fed the
		// ledger.
		eo, err := c.Replay()
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.New()
		eo.Obs = reg
		var buf bytes.Buffer
		if err := eo.Run(&buf, "fig6a"); err != nil {
			t.Fatal(err)
		}
		var snap bytes.Buffer
		if err := reg.WriteJSON(&snap); err != nil {
			t.Fatal(err)
		}
		snapshots = append(snapshots, snap.String())
	}
	for i := 1; i < len(snapshots); i++ {
		if snapshots[i] != snapshots[0] {
			t.Errorf("replay obs snapshot differs between N=1 and N=%d:\n%s\nvs\n%s",
				[]int{1, 2, 4}[i], snapshots[0], snapshots[i])
		}
	}
}

// TestConformanceFig7Fig8 covers the remaining figure sweeps of the
// Fig6–8 family at N=2: same byte-identity contract, including fig8
// where the wall-clock speedup axis must have been dropped for the
// merge to be reproducible at all.
func TestConformanceFig7Fig8(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep conformance; skipped in -short")
	}
	for _, experiment := range []string{"fig7", "fig8"} {
		experiment := experiment
		t.Run(experiment, func(t *testing.T) {
			serial := serialReport(t, experiment)
			got, _ := distReport(t, experiment, 2)
			if got != serial {
				t.Errorf("merged %s differs from serial:\n--- dist ---\n%s--- serial ---\n%s", experiment, got, serial)
			}
		})
	}
}
