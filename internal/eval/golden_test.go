package eval

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/uteda/gmap/internal/core"
	"github.com/uteda/gmap/internal/memsim"
	"github.com/uteda/gmap/internal/profiler"
	"github.com/uteda/gmap/internal/synth"
)

var update = flag.Bool("update", false, "rewrite golden files with current results")

// goldenMetrics is the pinned end-to-end fingerprint of one simulation:
// every headline metric of the pipeline (trace -> profile -> proxy ->
// simulate), for both sides of the workload.
type goldenMetrics struct {
	Cycles            uint64  `json:"cycles"`
	Requests          uint64  `json:"requests"`
	L1MissRate        float64 `json:"l1_miss_rate"`
	L2MissRate        float64 `json:"l2_miss_rate"`
	RowBufferLocality float64 `json:"row_buffer_locality"`
	AvgQueueLen       float64 `json:"avg_queue_len"`
	AvgReadLatency    float64 `json:"avg_read_latency"`
	DRAMReads         uint64  `json:"dram_reads"`
	DRAMWrites        uint64  `json:"dram_writes"`
}

func snapshot(m memsim.Metrics) goldenMetrics {
	return goldenMetrics{
		Cycles:            m.Cycles,
		Requests:          m.Requests,
		L1MissRate:        m.L1MissRate(),
		L2MissRate:        m.L2MissRate(),
		RowBufferLocality: m.DRAM.RowBufferLocality(),
		AvgQueueLen:       m.DRAM.AvgQueueLen(),
		AvgReadLatency:    m.DRAM.AvgReadLatency(),
		DRAMReads:         m.DRAM.Reads,
		DRAMWrites:        m.DRAM.Writes,
	}
}

// TestGoldenNN pins the nn workload's end-to-end metrics at a fixed seed.
// The whole pipeline is deterministic, so any drift here means a
// behavioural change somewhere in profiling, synthesis, coalescing,
// caching, scheduling or the DRAM model — exactly the kind of silent
// divergence the differential suites localize. Refresh intentionally
// with `go test ./internal/eval -run TestGoldenNN -update`.
func TestGoldenNN(t *testing.T) {
	w, err := core.Prepare("nn", 1, profiler.DefaultConfig(), synth.Options{Seed: 1, ScaleFactor: 4})
	if err != nil {
		t.Fatal(err)
	}
	cfg := memsim.DefaultConfig()
	cfg.NumCores = 4
	om, err := w.SimulateOriginal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := w.SimulateProxy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := struct {
		Original goldenMetrics `json:"original"`
		Proxy    goldenMetrics `json:"proxy"`
	}{snapshot(om), snapshot(pm)}

	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')

	path := filepath.Join("testdata", "golden_nn.json")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden file)", err)
	}
	if !bytes.Equal(data, want) {
		t.Errorf("end-to-end metrics drifted from golden file %s\ngot:\n%s\nwant:\n%s\n(run with -update if the change is intentional)",
			path, data, want)
	}
}

// TestReportGolden pins every figure's bytes: the report of
// `gmap-eval -exp all -no-timings` (Table 1 and 2, every figure's
// per-benchmark rows and averages, Fig 7's bars, Fig 8 and the ablation
// table) must equal testdata/report_all.txt, and under -short the same
// report over nn, kmeans and heartwall must equal
// testdata/report_short.txt. A row that moves fails. A change that moves
// accuracy on purpose re-records both files with
// `go test ./internal/eval -run TestReportGolden -update` and lists every
// row that got worse in CHANGES.md.
func TestReportGolden(t *testing.T) {
	goldens := []struct {
		path       string
		benchmarks []string
	}{
		{"report_all.txt", nil},
		{"report_short.txt", []string{"nn", "kmeans", "heartwall"}},
	}
	for _, g := range goldens {
		// -short checks the three-benchmark file, a full run the other;
		// -update re-records both.
		if short := g.benchmarks != nil; short != testing.Short() && !*update {
			continue
		}
		opts := DefaultOptions()
		opts.Benchmarks = g.benchmarks
		opts.NoTimings = true
		var buf bytes.Buffer
		if err := opts.Run(&buf, "all"); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", g.path)
		if *update {
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("updated %s", path)
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to create the golden file)", err)
		}
		if diff := firstDiffs(buf.String(), string(want), 5); diff != "" {
			t.Errorf("report drifted from golden file %s:\n%s\n(if the change is intentional, re-record with `go test ./internal/eval -run TestReportGolden -update`)",
				path, diff)
		}
	}
}

// firstDiffs lists up to n lines where got and want differ, or returns
// "" when they are equal.
func firstDiffs(got, want string, n int) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	var b strings.Builder
	for i := 0; (i < len(g) || i < len(w)) && n > 0; i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl || (i < len(g)) != (i < len(w)) {
			fmt.Fprintf(&b, "line %d:\n  got:  %q\n  want: %q\n", i+1, gl, wl)
			n--
		}
	}
	return b.String()
}
