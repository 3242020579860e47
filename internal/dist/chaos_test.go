package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"github.com/uteda/gmap/internal/fault"
	"github.com/uteda/gmap/internal/runner"
)

// TestChaosWorkerKilledMidLease kills a worker (context cancel — the
// in-process stand-in for kill -9; the script chaos lane does it with a
// real signal) once it has merged at least one result, lets the short
// TTL expire its lease, and has a replacement worker finish the sweep.
// The merged report must still be byte-identical to the serial run.
func TestChaosWorkerKilledMidLease(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep chaos; skipped in -short")
	}
	serial := serialReport(t, "fig6a")

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	c, err := NewCoordinator(CoordinatorOptions{
		Spec:     quickSpec("fig6a"),
		Parts:    4,
		LeaseTTL: time.Second,
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

	// Victim: killed as soon as it has merged a result mid-lease.
	victimCtx, kill := context.WithCancel(ctx)
	victimDone := make(chan error, 1)
	go func() {
		victimDone <- RunWorker(victimCtx, WorkerOptions{
			Coordinator: srv.URL(),
			Name:        "victim",
			Workers:     1,
			Poll:        10 * time.Millisecond,
		})
	}()
	deadline := time.After(time.Minute)
	for {
		st := c.StatusSnapshot()
		if st.DoneJobs >= 1 && st.DoneJobs < st.TotalJobs {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("victim never made progress: %+v", st)
		case <-time.After(5 * time.Millisecond):
		}
	}
	kill()
	if err := <-victimDone; err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("killed victim returned %v", err)
	}

	// Replacement: drives the sweep to completion, inheriting the
	// victim's part once its lease expires.
	if err := RunWorker(ctx, WorkerOptions{
		Coordinator: srv.URL(),
		Name:        "replacement",
		Workers:     2,
		Poll:        50 * time.Millisecond,
		Logf:        t.Logf,
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitDone(ctx); err != nil {
		t.Fatal(err)
	}
	st := c.StatusSnapshot()
	if st.Expired+st.Stolen == 0 {
		t.Errorf("victim's lease was never reclaimed: %+v", st)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.WriteReport(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != serial {
		t.Errorf("post-kill merged report differs from serial:\n--- dist ---\n%s--- serial ---\n%s", buf.String(), serial)
	}
}

// TestChaosCoordinatorRestart interrupts a sweep, drops the coordinator
// entirely, and builds a fresh one over the surviving ledger: the
// journal is the only durable state, restored results are not re-run,
// and the finished report is byte-identical to serial.
func TestChaosCoordinatorRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep chaos; skipped in -short")
	}
	serial := serialReport(t, "fig6a")
	ledger := filepath.Join(t.TempDir(), "ledger.jsonl")

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	// Epoch 1: merge part of the sweep, then lose the coordinator.
	c1, err := NewCoordinator(CoordinatorOptions{
		Spec:     quickSpec("fig6a"),
		Parts:    4,
		LeaseTTL: time.Minute,
		Ledger:   ledger,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv1, err := c1.Serve(ctx, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wctx, stopWorker := context.WithCancel(ctx)
	workerDone := make(chan error, 1)
	go func() {
		workerDone <- RunWorker(wctx, WorkerOptions{Coordinator: srv1.URL(), Name: "w1", Workers: 1, Poll: 10 * time.Millisecond})
	}()
	deadline := time.After(time.Minute)
	for c1.StatusSnapshot().DoneJobs < 5 {
		select {
		case <-deadline:
			t.Fatalf("epoch 1 never reached 5 jobs: %+v", c1.StatusSnapshot())
		case <-time.After(5 * time.Millisecond):
		}
	}
	stopWorker()
	<-workerDone
	merged := c1.StatusSnapshot().DoneJobs
	srv1.Shutdown()
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	// Epoch 2: a brand-new coordinator restores the journal and a fresh
	// worker finishes only the remainder.
	c2, err := NewCoordinator(CoordinatorOptions{
		Spec:     quickSpec("fig6a"),
		Parts:    4,
		LeaseTTL: time.Minute,
		Ledger:   ledger,
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := c2.StatusSnapshot().Restored; got != merged {
		t.Errorf("restart restored %d jobs, epoch 1 merged %d", got, merged)
	}
	srv2, err := c2.Serve(ctx, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Shutdown()
	if err := RunWorker(ctx, WorkerOptions{Coordinator: srv2.URL(), Name: "w2", Workers: 2, Poll: 10 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if err := c2.WaitDone(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c2.WriteReport(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != serial {
		t.Errorf("post-restart merged report differs from serial:\n--- dist ---\n%s--- serial ---\n%s", buf.String(), serial)
	}
}

// TestChaosTornLedgerWrite crashes the ledger stream mid-write and
// checks the restart contract: the crashed coordinator's in-memory done
// set never gets ahead of what a strict salvage of the file recovers,
// the torn tail is truncated, and a restarted coordinator finishes the
// sweep over the same file.
func TestChaosTornLedgerWrite(t *testing.T) {
	dir := t.TempDir()
	ledger := filepath.Join(dir, "ledger.jsonl")
	ifs := &fault.InjectFS{WritePlanFor: func(name string) *fault.WritePlan {
		return fault.NewWritePlan().CrashAt(150)
	}}

	c, keys, _ := syntheticCoordinator(t, 10, CoordinatorOptions{
		Parts:    1,
		LeaseTTL: time.Minute,
		Ledger:   ledger,
		FS:       ifs,
	})
	g := mustLease(t, c, "w")
	if g.Status != GrantLease {
		t.Fatalf("grant %+v", g)
	}
	var entries []Entry
	for _, k := range g.Keys {
		entries = append(entries, Entry{Key: k, Value: payloadFor(k), ElapsedNS: 1e6})
	}
	accepted, _, err := c.Results(g.Lease, g.Epoch, entries)
	if err == nil {
		t.Fatal("batch survived a crashed ledger stream")
	}
	if accepted == 0 || accepted >= len(keys) {
		t.Fatalf("accepted %d of %d before the crash, want a strict prefix past 0", accepted, len(keys))
	}
	if got := c.StatusSnapshot().DoneJobs; got != accepted {
		t.Errorf("in-memory done %d != appended %d — state ran ahead of the file", got, accepted)
	}
	_ = c.Close() // the stream is notionally dead; errors are expected

	// Restart on the real filesystem: strict salvage recovers exactly
	// the fully-written prefix and truncates the torn tail.
	c2, _, _ := syntheticCoordinator(t, 10, CoordinatorOptions{
		Parts:    1,
		LeaseTTL: time.Minute,
		Ledger:   ledger,
	})
	st := c2.StatusSnapshot()
	if st.Restored != accepted {
		t.Errorf("restart restored %d, crashed coordinator appended %d", st.Restored, accepted)
	}
	g2 := mustLease(t, c2, "w2")
	if g2.Status != GrantLease {
		t.Fatalf("grant after restart: %+v", g2)
	}
	if len(g2.Keys) != len(keys)-accepted {
		t.Errorf("restart re-leased %d keys, want the %d-key remainder", len(g2.Keys), len(keys)-accepted)
	}
	var rest []Entry
	for _, k := range g2.Keys {
		rest = append(rest, Entry{Key: k, Value: payloadFor(k), ElapsedNS: 1e6})
	}
	if _, _, err := c2.Results(g2.Lease, g2.Epoch, rest); err != nil {
		t.Fatal(err)
	}
	select {
	case <-c2.Done():
	default:
		t.Fatal("sweep not done after restart completion")
	}
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}
	vals, sv, err := runner.SalvageStrict(nil, ledger)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != len(keys) || sv.Lines != len(keys) {
		t.Errorf("final ledger %d entries / %d lines, want %d", len(vals), sv.Lines, len(keys))
	}
}

// TestChaosDivergentPayloadRejected pins batch atomicity under the
// determinism contract: a batch containing one divergent resubmission
// is rejected whole — the fresh keys riding in the same batch are not
// merged and nothing reaches the ledger.
func TestChaosDivergentPayloadRejected(t *testing.T) {
	c, _, _ := syntheticCoordinator(t, 6, CoordinatorOptions{Parts: 1, LeaseTTL: time.Minute})
	g := mustLease(t, c, "w")
	first := g.Keys[0]
	if _, _, err := c.Results(g.Lease, g.Epoch, []Entry{{Key: first, Value: payloadFor(first), ElapsedNS: 1}}); err != nil {
		t.Fatal(err)
	}

	fresh := g.Keys[1]
	_, _, err := c.Results(g.Lease, g.Epoch, []Entry{
		{Key: fresh, Value: payloadFor(fresh), ElapsedNS: 1},
		{Key: first, Value: json.RawMessage(`{"job":"tampered"}`), ElapsedNS: 1},
	})
	if !errors.Is(err, ErrDivergent) {
		t.Fatalf("divergent resubmission: %v", err)
	}
	if got := c.StatusSnapshot().DoneJobs; got != 1 {
		t.Errorf("rejected batch leaked %d merged jobs, want 1", got)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	vals, _, err := runner.SalvageStrict(nil, c.o.Ledger)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 1 {
		t.Errorf("ledger holds %d entries after rejected batch, want 1", len(vals))
	}

	// An identical resubmission, by contrast, is a counted duplicate.
	c2, _, _ := syntheticCoordinator(t, 4, CoordinatorOptions{Parts: 1, LeaseTTL: time.Minute})
	g2 := mustLease(t, c2, "w")
	k := g2.Keys[0]
	for i := 0; i < 2; i++ {
		if _, _, err := c2.Results(g2.Lease, g2.Epoch, []Entry{{Key: k, Value: payloadFor(k), ElapsedNS: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	if st := c2.StatusSnapshot(); st.Duplicates != 1 || st.DoneJobs != 1 {
		t.Errorf("identical resubmission: %+v, want 1 duplicate / 1 done", st)
	}
}

// TestChaosForeignKeyRejected covers both entry points: a result for a
// key outside the universe is a 409-class rejection, and a ledger
// belonging to a different sweep refuses to restore at all.
func TestChaosForeignKeyRejected(t *testing.T) {
	c, _, _ := syntheticCoordinator(t, 4, CoordinatorOptions{Parts: 1, LeaseTTL: time.Minute})
	g := mustLease(t, c, "w")
	_, _, err := c.Results(g.Lease, g.Epoch, []Entry{{Key: "deadbeef", Value: json.RawMessage(`{}`), ElapsedNS: 1}})
	if !errors.Is(err, ErrForeignKey) {
		t.Fatalf("foreign result: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	ledger := filepath.Join(t.TempDir(), "foreign.jsonl")
	app, err := runner.OpenCheckpointAppender(nil, ledger, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Append("deadbeef", json.RawMessage(`{}`), 0); err != nil {
		t.Fatal(err)
	}
	if err := app.Close(); err != nil {
		t.Fatal(err)
	}
	spec := SweepSpec{Experiment: "synthetic"}
	o := CoordinatorOptions{Ledger: ledger}
	o.fillDefaults()
	if _, err := newCoordinator(spec, []string{runner.JobKey("synthetic", "job-000")}, o); !errors.Is(err, ErrForeignKey) {
		t.Fatalf("foreign ledger restored: %v", err)
	}
}
