package eval

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/uteda/gmap/internal/core"
	"github.com/uteda/gmap/internal/memsim"
)

// TestFig6eGolden pins every Fig 6e point's checkpoint payload for the
// Fig 8 golden benchmarks at seed 1: the LRR half, and the GTO half whose
// proxies run PSelf. These are the eval-scale runs of the GTO and PSelf
// schedulers, so a change to GTO's pick order or to when PSelf draws its
// repeat coin shows up here. Each line carries the point's job key.
// Refresh intentionally with
// `go test ./internal/eval -run TestFig6eGolden -update`.
func TestFig6eGolden(t *testing.T) {
	opts := quickOpts()
	opts.Benchmarks = fig8GoldenBenchmarks
	opts.NoTimings = true
	points := make(map[string]string)
	opts.ResultSink = func(key string, v json.RawMessage, _ time.Duration) error {
		points[key] = string(v)
		return nil
	}
	if _, err := opts.Fig6e(); err != nil {
		t.Fatal(err)
	}
	halves := []struct {
		id         string
		orig, prox memsim.SchedPolicy
	}{
		{"fig6e/lrr", memsim.LRR, memsim.LRR},
		{"fig6e/gto", memsim.GTO, memsim.PSelf},
	}
	var buf bytes.Buffer
	want := 0
	for _, h := range halves {
		og, pg := SchedulerSweep(opts.Cores, h.orig), SchedulerSweep(opts.Cores, h.prox)
		for _, name := range opts.Benchmarks {
			for i := range og {
				key := opts.jobKey(h.id, name, og[i].Label, "proxy:"+pg[i].Label, core.L1MissRate.Name)
				p, ok := points[key]
				if !ok {
					t.Fatalf("no payload for %s %s %q (key %s)", h.id, name, og[i].Label, key)
				}
				fmt.Fprintf(&buf, "%s %s %q %s %s\n", h.id, name, og[i].Label, key, p)
				want++
			}
		}
	}
	if len(points) != want {
		t.Fatalf("fig6e delivered %d payloads, want %d", len(points), want)
	}

	path := filepath.Join("testdata", "fig6e_golden.txt")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", path)
		return
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden file)", err)
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Errorf("fig6e payloads drifted from golden file %s\ngot:\n%s\nwant:\n%s\n(run with -update if the change is intentional)",
			path, buf.Bytes(), golden)
	}
}
