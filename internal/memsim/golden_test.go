// Golden regression test for the simulator: randomized machines and
// workloads — barriers, bounded MSHR files, both prefetchers, every
// scheduling policy and multi-launch sequences — must reproduce pinned
// SHA-256 digests of the metrics and of every export surface.
package memsim_test

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/uteda/gmap/internal/memsim"
	"github.com/uteda/gmap/internal/obs"
	obstrace "github.com/uteda/gmap/internal/obs/trace"
	"github.com/uteda/gmap/internal/proptest"
)

var update = flag.Bool("update", false, "rewrite golden files with current results")

const (
	simGoldenFile = "testdata/sim_golden.txt"
	// simGoldenCases is the number of pinned cases; -short checks the
	// first simGoldenShort of them.
	simGoldenCases = 400
	simGoldenShort = 60
)

// simGoldenDigest runs case seed fully instrumented and returns one
// golden line: the seed, then the SHA-256 of the metrics (JSON), the obs
// snapshot, the cycle-keyed series export and the span trace (exported
// with an injected deterministic clock so wall timestamps cannot excuse a
// byte difference).
func simGoldenDigest(t *testing.T, seed uint64) string {
	t.Helper()
	launches, cfg := memsim.GoldenCase(seed)

	reg := obs.New()
	var clk int64
	tr := obstrace.NewWithOptions(obstrace.Options{Now: func() time.Time {
		clk++
		return time.Unix(0, clk*1000)
	}})
	root := tr.Root("test")
	cfg.Obs = reg
	cfg.TraceSpan = root
	sim, err := memsim.NewSequence(launches, cfg)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	m, err := sim.Run()
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	root.End()
	metrics, err := json.Marshal(m)
	if err != nil {
		t.Fatalf("seed %d: metrics: %v", seed, err)
	}
	var snap, series, tj bytes.Buffer
	if err := reg.WriteJSON(&snap); err != nil {
		t.Fatalf("seed %d: snapshot: %v", seed, err)
	}
	if err := reg.WriteSeriesJSONL(&series); err != nil {
		t.Fatalf("seed %d: series: %v", seed, err)
	}
	if err := tr.WriteJSONL(&tj); err != nil {
		t.Fatalf("seed %d: trace: %v", seed, err)
	}
	line := fmt.Sprintf("%#x", seed)
	for _, b := range [][]byte{metrics, snap.Bytes(), series.Bytes(), tj.Bytes()} {
		sum := sha256.Sum256(b)
		line += " " + hex.EncodeToString(sum[:])
	}
	return line
}

// TestSimGolden pins the simulator's observable behaviour: per case, the
// metrics (including the per-launch breakdown) and the obs snapshot,
// series and trace exports must hash to the recorded digests. Any change
// to scheduling, cache, MSHR, prefetch or DRAM ordering shows up here.
// Run with -update to re-record after an intended behaviour change.
func TestSimGolden(t *testing.T) {
	if *update {
		var buf bytes.Buffer
		buf.WriteString("# seed metrics snapshot series trace (SHA-256; see golden_test.go)\n")
		for i := 0; i < simGoldenCases; i++ {
			buf.WriteString(simGoldenDigest(t, memsim.GoldenSeed(i)) + "\n")
		}
		if err := os.MkdirAll(filepath.Dir(simGoldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(simGoldenFile, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(simGoldenFile)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if l := sc.Text(); l != "" && !strings.HasPrefix(l, "#") {
			want = append(want, l)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != simGoldenCases {
		t.Fatalf("%s holds %d cases, want %d (run with -update to re-record)", simGoldenFile, len(want), simGoldenCases)
	}
	// A raised budget cannot check cases the golden does not hold.
	n := proptest.N(t, simGoldenShort, simGoldenCases)
	if n > len(want) {
		t.Logf("case budget %d capped at the %d recorded cases", n, len(want))
		n = len(want)
	}
	for i := 0; i < n; i++ {
		if got := simGoldenDigest(t, memsim.GoldenSeed(i)); got != want[i] {
			t.Fatalf("case %d diverges from %s:\n got  %s\n want %s", i, simGoldenFile, got, want[i])
		}
	}
}
