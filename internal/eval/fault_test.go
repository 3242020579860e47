package eval

import (
	"strings"
	"testing"
)

// TestFailedPointFailsFigure: a benchmark whose points fail fails the
// whole figure, loudly, naming the experiment and the failure count —
// never a figure silently built from the surviving rows.
func TestFailedPointFailsFigure(t *testing.T) {
	opts := quickOpts()
	opts.Benchmarks = []string{"nn", "no-such-benchmark"}
	_, err := opts.Fig6a()
	if err == nil {
		t.Fatal("sweep with an unknown benchmark reported success")
	}
	if !strings.Contains(err.Error(), "fig6a") || !strings.Contains(err.Error(), "jobs failed") {
		t.Fatalf("error = %v, want experiment id and failure count", err)
	}
}
