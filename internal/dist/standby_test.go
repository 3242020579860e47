package dist

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/uteda/gmap/internal/fault"
	"github.com/uteda/gmap/internal/obs"
	"github.com/uteda/gmap/internal/runner"
)

var update = flag.Bool("update", false, "rewrite golden files with current results")

// syntheticSpecLedger seeds a ledger with n merged synthetic results so
// standby tests can assert restoration counts.
func seedLedger(t *testing.T, ledger string, keys []string) {
	t.Helper()
	app, err := runner.OpenCheckpointAppender(nil, ledger, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if err := app.Append(k, payloadFor(k), time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if err := app.Close(); err != nil {
		t.Fatal(err)
	}
}

// syntheticKeys mirrors the synthetic job-key universe used across the
// partition tests. RunStandby only enumerates the sweep universe at
// takeover, so tests that never promote can use a bogus spec safely.
func syntheticKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = runner.JobKey("synthetic", fmt.Sprintf("job-%03d", i))
	}
	return keys
}

// TestStandbyStandsDownOnDone: a healthy active coordinator that
// reports the sweep done sends the standby home without a takeover.
func TestStandbyStandsDownOnDone(t *testing.T) {
	ledger := filepath.Join(t.TempDir(), "ledger.jsonl")
	probes := 0
	tk, err := RunStandby(context.Background(), StandbyOptions{
		Spec:           SweepSpec{Experiment: "never-enumerated"},
		Ledger:         ledger,
		HealthInterval: time.Millisecond,
		Probe: func(ctx context.Context) (Status, error) {
			probes++
			if probes < 3 {
				return Status{Epoch: 1}, nil
			}
			return Status{Epoch: 1, Done: true}, nil
		},
		Logf: t.Logf,
	})
	if err != nil || tk != nil {
		t.Fatalf("RunStandby = %v, %v; want nil, nil", tk, err)
	}
	if probes != 3 {
		t.Errorf("probes = %d, want 3", probes)
	}
	if _, err := os.Stat(EpochPath(ledger)); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("standing down wrote an epoch file: %v", err)
	}
}

// TestStandbyGrowthVeto: a coordinator whose HTTP surface is dead but
// whose ledger keeps growing is alive; the standby must not promote
// over it, no matter how many probes fail.
func TestStandbyGrowthVeto(t *testing.T) {
	dir := t.TempDir()
	ledger := filepath.Join(dir, "ledger.jsonl")
	keys := syntheticKeys(40)

	// The "active coordinator": unreachable over HTTP, but appending one
	// result per probe tick.
	app, err := runner.OpenCheckpointAppender(nil, ledger, false)
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()

	next := 0
	probes := 0
	tk, err := RunStandby(context.Background(), StandbyOptions{
		Spec:           SweepSpec{Experiment: "never-enumerated"},
		Ledger:         ledger,
		HealthInterval: time.Millisecond,
		HealthMisses:   3,
		Probe: func(ctx context.Context) (Status, error) {
			probes++
			if probes > 30 {
				// Stop feeding the veto; the standby should now count three
				// clean misses and promote — proven by the takeover error
				// below (the bogus spec cannot enumerate).
				return Status{}, errors.New("probe: connection refused")
			}
			if next < len(keys) {
				if err := app.Append(keys[next], payloadFor(keys[next]), time.Millisecond); err != nil {
					t.Error(err)
				}
				next++
			}
			return Status{}, errors.New("probe: connection refused")
		},
		Logf: t.Logf,
	})
	if err == nil || tk != nil {
		t.Fatalf("RunStandby = %v, %v; want the bogus-spec takeover error", tk, err)
	}
	// Every failed-but-growing probe was vetoed: promotion had to wait
	// for the growth to stop plus three clean misses.
	if probes < 33 {
		t.Errorf("promoted after %d probes; growth should have vetoed the first 30", probes)
	}
}

// TestStandbyTakeover: probe failures with a silent ledger promote the
// standby — epoch bumped, merged results restored, addr file rewritten
// to the takeover server, and the sweep finishes under the new
// incarnation.
func TestStandbyTakeover(t *testing.T) {
	dir := t.TempDir()
	ledger := filepath.Join(dir, "ledger.jsonl")
	addrFile := filepath.Join(dir, "coord.addr")
	if err := WriteAddrFile(nil, addrFile, "http://127.0.0.1:1"); err != nil {
		t.Fatal(err)
	}
	// Promotion re-enumerates the sweep universe, so the spec must be a
	// real experiment; seed the ledger with three of its job keys.
	sp := quickSpec("fig6a")
	if err := sp.Normalize(); err != nil {
		t.Fatal(err)
	}
	keys, err := sp.EvalOptions().SweepKeys(sp.Experiment)
	if err != nil {
		t.Fatal(err)
	}
	seedLedger(t, ledger, keys[:3])

	// Simulate a predecessor: epoch 1 was claimed and its holder died.
	if err := writeEpoch(fault.OS, ledger, 1); err != nil {
		t.Fatal(err)
	}

	reg := obs.New()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	tk, err := RunStandby(ctx, StandbyOptions{
		Spec:           sp,
		Ledger:         ledger,
		Listen:         "127.0.0.1:0",
		AddrFile:       addrFile,
		HealthInterval: time.Millisecond,
		HealthMisses:   3,
		Obs:            reg,
		Probe: func(ctx context.Context) (Status, error) {
			return Status{}, errors.New("probe: connection refused")
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatalf("takeover: %v", err)
	}
	c := tk.Coordinator
	defer c.Close()
	defer tk.Server.Shutdown()
	if got := c.Epoch(); got != 2 {
		t.Errorf("takeover epoch = %d, want 2 (predecessor held 1)", got)
	}
	data, rerr := os.ReadFile(addrFile)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if got := strings.TrimSpace(string(data)); got != tk.Server.URL() {
		t.Errorf("addr file %q, want the takeover server %q", got, tk.Server.URL())
	}
	if got := c.StatusSnapshot().Restored; got != 3 {
		t.Errorf("restored %d, want the 3 seeded results", got)
	}
}

// TestStatusGolden pins the status endpoint's wire shape — the
// auto-scaling hook surface — against a golden file, on a scripted
// schedule over the fake clock so every field (lease ages, last-seen
// timestamps, epoch) is deterministic. Refresh intentionally with
// `go test ./internal/dist -run TestStatusGolden -update`.
func TestStatusGolden(t *testing.T) {
	c, _, clk := syntheticCoordinator(t, 8, CoordinatorOptions{
		Parts:    4,
		LeaseTTL: 30 * time.Second,
	})
	g1 := mustLease(t, c, "alice")
	clk.advance(5 * time.Second)
	g2 := mustLease(t, c, "bob")
	var entries []Entry
	for _, k := range g1.Keys {
		entries = append(entries, Entry{Key: k, Value: payloadFor(k), ElapsedNS: int64(time.Millisecond)})
	}
	if _, _, err := c.Results(g1.Lease, g1.Epoch, entries); err != nil {
		t.Fatal(err)
	}
	clk.advance(3 * time.Second)
	if err := c.Heartbeat(g2.Lease, g2.Epoch); err != nil {
		t.Fatal(err)
	}

	got, err := json.MarshalIndent(c.StatusSnapshot(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	golden := filepath.Join("testdata", "status_golden.json")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("status snapshot drifted from golden:\n--- got ---\n%s--- want ---\n%s\n(refresh with -update if intentional)", got, want)
	}
}
