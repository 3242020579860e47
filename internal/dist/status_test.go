package dist

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files with current results")

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
	if _, _, err := c.Results("alice", g1.Lease, g1.Epoch, entries); err != nil {
		t.Fatal(err)
	}
	clk.advance(3 * time.Second)
	if err := c.Heartbeat("bob", g2.Lease, g2.Epoch); err != nil {
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

// TestStaleness: the roster marks a worker stale once it has been
// silent for a lease TTL, keeps one that was told the sweep is done
// done however long it stays silent, and counts only live workers
// against drain.
func TestStaleness(t *testing.T) {
	const ttl = 30 * time.Second
	c, _, clk := syntheticCoordinator(t, 8, CoordinatorOptions{Parts: 4, LeaseTTL: ttl})
	defer c.Close()
	states := func() map[string]string {
		m := map[string]string{}
		for _, w := range c.StatusSnapshot().Workers {
			m[w.Name] = w.State
		}
		return m
	}
	deliver := func(g LeaseGrant) {
		t.Helper()
		var entries []Entry
		for _, k := range g.Keys {
			entries = append(entries, Entry{Key: k, Value: payloadFor(k)})
		}
		if _, _, err := c.Results("busy", g.Lease, g.Epoch, entries); err != nil {
			t.Fatal(err)
		}
	}

	mustLease(t, c, "gone")
	g := mustLease(t, c, "busy")
	clk.advance(ttl / 2)
	if err := c.Heartbeat("busy", g.Lease, g.Epoch); err != nil {
		t.Fatal(err)
	}
	clk.advance(ttl/2 + time.Second)
	if got := states(); got["gone"] != WorkerStale || got["busy"] != WorkerLive {
		t.Errorf("after a TTL of silence from gone: %v, want gone stale and busy live", got)
	}
	if c.drained() {
		t.Error("drained with a live worker on the roster")
	}

	deliver(g)
	for g = mustLease(t, c, "busy"); g.Status == GrantLease; g = mustLease(t, c, "busy") {
		deliver(g)
	}
	if g.Status != GrantDone {
		t.Fatalf("last lease request answered %q, want done", g.Status)
	}
	clk.advance(2 * ttl)
	if got := states(); got["gone"] != WorkerStale || got["busy"] != WorkerDone {
		t.Errorf("after the sweep finished: %v, want gone stale and busy done", got)
	}
	if !c.drained() {
		t.Error("not drained with no live worker on the roster")
	}
}
