// Golden regression test for the controller: random FR-FCFS and FCFS
// machines driven through interleaved Enqueue, AdvanceInto,
// NextCompletion and Drain calls must reproduce pinned SHA-256 digests of
// every completion and of the final statistics.
package dram_test

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/uteda/gmap/internal/dram"
	"github.com/uteda/gmap/internal/proptest"
)

var update = flag.Bool("update", false, "rewrite golden files with current results")

const (
	ctrlGoldenFile  = "testdata/ctrl_golden.txt"
	ctrlGoldenCases = 300
)

// ctrlGoldenSeed is case i's generator seed.
func ctrlGoldenSeed(i int) uint64 { return uint64(0xd7a3e0) + uint64(i)*104729 }

// ctrlGoldenDigest runs case seed and returns one golden line: the seed
// and the SHA-256 of the completions (ID, Done, RowHit) in delivery order,
// every NextCompletion answer and the final Stats, unexported sums
// included. Arrivals are non-decreasing, as Enqueue requires, and often
// ahead of the cycle the controller was last advanced to.
func ctrlGoldenDigest(t *testing.T, seed uint64) string {
	t.Helper()
	g := proptest.New(seed)
	cfg := g.DRAMConfig()
	if g.R.Bool(0.5) {
		cfg.Sched = dram.FRFCFS
	}
	ctl, err := dram.NewController(cfg)
	if err != nil {
		t.Fatalf("seed %#x: %v", seed, err)
	}
	h := sha256.New()
	emit := func(cs []dram.Completion) {
		for _, c := range cs {
			fmt.Fprintf(h, "c %d %d %t\n", c.ID, c.Done, c.RowHit)
		}
	}
	var buf []dram.Completion
	var now, arrival uint64
	for id, addr := range g.AddrStream(50+g.R.Intn(250), uint64(cfg.TxBytes)) {
		arrival = max(arrival, now+g.R.Uint64n(16))
		ctl.Enqueue(addr, g.R.Bool(0.3), arrival, uint64(id))
		switch r := g.R.Intn(20); {
		case r < 10:
			now += g.R.Uint64n(24)
			buf = ctl.AdvanceInto(now, buf[:0])
			emit(buf)
		case r < 12:
			next, ok := ctl.NextCompletion()
			fmt.Fprintf(h, "n %d %t\n", next, ok)
		case r == 12:
			emit(ctl.Drain())
		}
	}
	emit(ctl.Drain())
	fmt.Fprintf(h, "s %+v\n", ctl.Stats)
	return fmt.Sprintf("%#x %s", seed, hex.EncodeToString(h.Sum(nil)))
}

// TestCtrlGolden pins the controller's scheduling outcomes. Run with
// -update to re-record after an intended behaviour change.
func TestCtrlGolden(t *testing.T) {
	if *update {
		var buf bytes.Buffer
		buf.WriteString("# seed digest (SHA-256; see golden_test.go)\n")
		for i := 0; i < ctrlGoldenCases; i++ {
			buf.WriteString(ctrlGoldenDigest(t, ctrlGoldenSeed(i)) + "\n")
		}
		if err := os.MkdirAll(filepath.Dir(ctrlGoldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ctrlGoldenFile, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(ctrlGoldenFile)
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
	if len(want) != ctrlGoldenCases {
		t.Fatalf("%s holds %d cases, want %d (run with -update to re-record)", ctrlGoldenFile, len(want), ctrlGoldenCases)
	}
	for i, w := range want {
		if got := ctrlGoldenDigest(t, ctrlGoldenSeed(i)); got != w {
			t.Fatalf("case %d diverges from %s:\n got  %s\n want %s", i, ctrlGoldenFile, got, w)
		}
	}
}
