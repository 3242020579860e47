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
