package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/uteda/gmap/internal/dist"
	obstrace "github.com/uteda/gmap/internal/obs/trace"
)

// TestCoordinatorOptionsCarryFsync: -fsync with -dist-listen must sync
// the coordinator's ledger, as it syncs the serial checkpoint.
func TestCoordinatorOptionsCarryFsync(t *testing.T) {
	spec := dist.SweepSpec{Experiment: "fig6a"}
	for _, fsync := range []bool{false, true} {
		co := distFlags{listen: ":0", fsync: fsync}.coordinatorOptions(spec, "sweep.ckpt")
		if co.Fsync != fsync {
			t.Errorf("-fsync=%v: coordinator Fsync = %v", fsync, co.Fsync)
		}
		if co.Ledger != "sweep.ckpt" || co.Spec.Experiment != "fig6a" {
			t.Errorf("options = %+v, want the ledger and spec passed in", co)
		}
	}
}

// TestCoordinatorWritesMergedTrace: with -trace-out, a coordinator writes
// the merged fleet trace once its workers drain — the document
// /fleet/trace/chrome serves, holding the sweep span and the lease spans
// its worker pushed. A .jsonl path fails before the coordinator listens.
func TestCoordinatorWritesMergedTrace(t *testing.T) {
	dir := t.TempDir()
	spec := dist.SweepSpec{Experiment: "fig6a", Benchmarks: []string{"nn"}, Scale: 1, ScaleFactor: 4, Cores: 4, Seed: 1}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	ledger := filepath.Join(dir, "ledger.jsonl")
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	jsonl := distFlags{listen: "127.0.0.1:0", traceOut: filepath.Join(dir, "trace.jsonl")}
	if err := runCoordinator(ctx, spec, jsonl, ledger, io.Discard, nil); err == nil || !strings.Contains(err.Error(), "Chrome JSON only") {
		t.Fatalf("-trace-out .jsonl: err = %v, want the Chrome-only error", err)
	}

	df := distFlags{
		listen:   "127.0.0.1:0",
		addrFile: filepath.Join(dir, "coord.addr"),
		parts:    2,
		leaseTTL: 2 * time.Second,
		traceOut: filepath.Join(dir, "trace.json"),
	}
	done := make(chan error, 1)
	go func() { done <- runCoordinator(ctx, spec, df, ledger, io.Discard, nil) }()
	for {
		if _, err := os.Stat(df.addrFile); err == nil {
			break
		}
		select {
		case err := <-done:
			t.Fatalf("coordinator exited before writing its address: %v", err)
		case <-time.After(10 * time.Millisecond):
		}
	}
	if err := dist.RunWorker(ctx, dist.WorkerOptions{
		AddrFile: df.addrFile,
		Name:     "w0",
		Workers:  1,
		Poll:     10 * time.Millisecond,
		Trace:    obstrace.New(),
	}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(df.traceOut)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("merged trace is not JSON: %v\n%.2000s", err, data)
	}
	count := map[string]int{}
	for _, e := range doc.TraceEvents {
		count[e.Name]++
	}
	if count["dist.sweep"] != 1 || count["dist.worker.lease"] == 0 {
		t.Fatalf("merged trace holds %d dist.sweep and %d dist.worker.lease spans; want 1 and at least 1", count["dist.sweep"], count["dist.worker.lease"])
	}
}
