package eval

import (
	"bytes"
	"encoding/json"
	"io"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"github.com/uteda/gmap/internal/runner"
)

// TestSweepKeysMatchExecution is the coordinator/worker identity
// contract: the keys SweepKeys enumerates must be exactly the keys an
// actual execution checkpoints — same hashing, same options, nothing
// executed during enumeration.
func TestSweepKeysMatchExecution(t *testing.T) {
	opts := quickOpts()
	opts.Benchmarks = []string{"nn"}
	keys, err := opts.SweepKeys("fig6a")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 30 {
		t.Fatalf("fig6a nn enumerates %d keys, want 30", len(keys))
	}
	if !sort.StringsAreSorted(keys) {
		t.Error("SweepKeys not sorted")
	}

	run := quickOpts()
	run.Benchmarks = []string{"nn"}
	run.Checkpoint = filepath.Join(t.TempDir(), "ckpt.jsonl")
	if _, err := run.Fig6a(); err != nil {
		t.Fatal(err)
	}
	recorded, err := runner.LoadCheckpoint(run.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	if len(recorded) != len(keys) {
		t.Fatalf("executed %d keys, enumerated %d", len(recorded), len(keys))
	}
	for _, k := range keys {
		if _, ok := recorded[k]; !ok {
			t.Errorf("enumerated key %s never executed", k)
		}
	}
}

// TestSweepKeysTableExperimentsEmpty pins that non-sweep experiments
// enumerate no keys (the distributed replay recomputes them locally)
// and cost nothing to enumerate.
func TestSweepKeysTableExperimentsEmpty(t *testing.T) {
	opts := quickOpts()
	for _, id := range []string{"table1", "table2"} {
		keys, err := opts.SweepKeys(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(keys) != 0 {
			t.Errorf("%s enumerates %d keys, want 0", id, len(keys))
		}
	}
}

// TestSweepKeysScaleFactorBelowOne: a factor in (0,1) scales the clone
// up, so it is a sweep of its own and must not fall back to the default
// factor of 4 — the keys, which mix the factor in, have to differ.
func TestSweepKeysScaleFactorBelowOne(t *testing.T) {
	keysAt := func(sf float64) []string {
		opts := quickOpts()
		opts.Benchmarks = []string{"nn"}
		opts.ScaleFactor = sf
		keys, err := opts.SweepKeys("fig6a")
		if err != nil {
			t.Fatal(err)
		}
		return keys
	}
	four := make(map[string]bool)
	for _, k := range keysAt(4) {
		four[k] = true
	}
	half := keysAt(0.5)
	if len(half) != len(four) {
		t.Fatalf("%d keys at 0.5, %d at 4", len(half), len(four))
	}
	for _, k := range half {
		if four[k] {
			t.Fatalf("key %s is the same at scale factors 0.5 and 4", k)
		}
	}
}

func TestSweepKeysUnknownExperiment(t *testing.T) {
	opts := quickOpts()
	if _, err := opts.SweepKeys("nonesuch"); err == nil {
		t.Error("unknown experiment enumerated")
	}
}

// TestShardedSinksCoverUniverse is the in-process merge conformance
// check under the distributed execution seams: the sweep split into
// disjoint shards via Shard, each shard's ResultSink events merged into
// one ledger, and a serial NoTimings replay of that ledger must render
// byte-identically to a direct serial NoTimings run.
func TestShardedSinksCoverUniverse(t *testing.T) {
	base := quickOpts()
	base.Benchmarks = []string{"nn"}
	base.NoTimings = true

	keys, err := base.SweepKeys("fig6a")
	if err != nil {
		t.Fatal(err)
	}
	universe := make(map[string]int, len(keys))
	const shards = 3
	perShard := make([][]string, shards)
	for i, k := range keys {
		universe[k] = i % shards
		perShard[i%shards] = append(perShard[i%shards], k)
	}

	ledger := filepath.Join(t.TempDir(), "ledger.jsonl")
	app, err := runner.OpenCheckpointAppender(nil, ledger, false)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]int)
	for s := 0; s < shards; s++ {
		s := s
		opts := quickOpts()
		opts.Benchmarks = []string{"nn"}
		opts.NoTimings = true
		opts.Workers = 2
		opts.Shard = func(key string) bool { return universe[key] == s }
		opts.ResultSink = func(key string, value json.RawMessage, elapsed time.Duration) error {
			seen[key]++
			return app.Append(key, value, elapsed)
		}
		// The sharded report is garbage by contract; only the sink
		// stream matters.
		if err := opts.Run(io.Discard, "fig6a"); err != nil {
			t.Fatalf("shard %d: %v", s, err)
		}
	}
	if err := app.Close(); err != nil {
		t.Fatal(err)
	}

	// Disjoint cover: every key exactly once, none outside its shard.
	if len(seen) != len(keys) {
		t.Fatalf("shards produced %d keys, universe has %d", len(seen), len(keys))
	}
	for k, n := range seen {
		if n != 1 {
			t.Errorf("key %s executed %d times", k, n)
		}
	}

	var merged bytes.Buffer
	replay := quickOpts()
	replay.Benchmarks = []string{"nn"}
	replay.NoTimings = true
	replay.Workers = 1
	replay.Checkpoint = ledger
	replay.Resume = true
	if err := replay.Run(&merged, "fig6a"); err != nil {
		t.Fatal(err)
	}
	if st := replay.ExecStats(); st.Skipped != len(keys) {
		t.Fatalf("replay resumed %d of %d jobs — it recomputed", st.Skipped, len(keys))
	}

	var serial bytes.Buffer
	direct := quickOpts()
	direct.Benchmarks = []string{"nn"}
	direct.NoTimings = true
	if err := direct.Run(&serial, "fig6a"); err != nil {
		t.Fatal(err)
	}
	if merged.String() != serial.String() {
		t.Errorf("merged replay differs from serial run:\nmerged:\n%s\nserial:\n%s", merged.String(), serial.String())
	}
}

// TestFig8NoTimingsDeterministic pins the fig8 determinism fix: under
// NoTimings the wall-clock speedup axis is dropped (rendered "-") and
// nothing is timed, so two executions render byte-identically and
// deliver identical checkpoint payloads, with orig_ns and prox_ns 0. Two
// dist workers running the same key then deliver the same payload, not a
// divergent duplicate.
func TestFig8NoTimingsDeterministic(t *testing.T) {
	render := func() (string, map[string]string) {
		opts := quickOpts()
		opts.Benchmarks = []string{"nn"}
		opts.NoTimings = true
		payloads := make(map[string]string)
		opts.ResultSink = func(key string, v json.RawMessage, _ time.Duration) error {
			payloads[key] = string(v)
			return nil
		}
		var buf bytes.Buffer
		if err := opts.Run(&buf, "fig8"); err != nil {
			t.Fatal(err)
		}
		return buf.String(), payloads
	}
	a, pa := render()
	b, pb := render()
	if a != b {
		t.Errorf("two NoTimings fig8 runs differ:\n%s\nvs\n%s", a, b)
	}
	// tabwriter pads cells with spaces; the dropped speedup column
	// renders as a lone dash.
	if !bytes.Contains([]byte(a), []byte(" - ")) {
		t.Errorf("NoTimings fig8 still renders a speedup: %s", a)
	}
	if len(pa) != 5 {
		t.Fatalf("fig8 over nn delivered %d payloads, want 5", len(pa))
	}
	for key, v := range pa {
		if pb[key] != v {
			t.Errorf("key %s: payloads differ between runs:\n%s\nvs\n%s", key, v, pb[key])
		}
		var s fig8Sample
		if err := json.Unmarshal([]byte(v), &s); err != nil {
			t.Fatal(err)
		}
		if s.OrigNS != 0 || s.ProxNS != 0 {
			t.Errorf("key %s: NoTimings payload carries times orig_ns=%d prox_ns=%d", key, s.OrigNS, s.ProxNS)
		}
	}
}
