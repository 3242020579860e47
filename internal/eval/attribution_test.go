package eval

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"github.com/uteda/gmap/internal/core"
	"github.com/uteda/gmap/internal/profiler"
	"github.com/uteda/gmap/internal/synth"
)

func prepareAttrWorkload(t *testing.T) *core.Workload {
	t.Helper()
	w, err := core.Prepare("nn", 1, profiler.DefaultConfig(), synth.Options{Seed: 1, ScaleFactor: 4})
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	return w
}

func TestAttributeRanksDeterministically(t *testing.T) {
	w := prepareAttrWorkload(t)
	pis, pcs, err := attribute(w, 8)
	if err != nil {
		t.Fatalf("attribute: %v", err)
	}
	if len(pis) == 0 || len(pcs) == 0 {
		t.Fatalf("empty attribution: %d π, %d PCs", len(pis), len(pcs))
	}
	for i := 1; i < len(pis); i++ {
		if pis[i].Score > pis[i-1].Score {
			t.Fatalf("π ranking not descending at %d: %v > %v", i, pis[i].Score, pis[i-1].Score)
		}
	}
	for i := 1; i < len(pcs); i++ {
		if pcs[i].Score > pcs[i-1].Score {
			t.Fatalf("PC ranking not descending at %d: %v > %v", i, pcs[i].Score, pcs[i-1].Score)
		}
	}
	for _, p := range pis {
		if p.Weight < 0 || p.Weight > 1 || p.ReuseTV < 0 || p.ReuseTV > 1 || p.SeqTV < 0 || p.SeqTV > 1 {
			t.Fatalf("π attribution out of range: %+v", p)
		}
	}
	for _, p := range pcs {
		if w.Profile.InstIndex(p.PC) < 0 {
			t.Fatalf("PC attribution references unknown pc %#x", p.PC)
		}
		if p.InterTV < 0 || p.InterTV > 1 || p.IntraTV < 0 || p.IntraTV > 1 {
			t.Fatalf("PC attribution TV out of range: %+v", p)
		}
	}

	// Same workload, same instrument — a second pass must rank identically.
	pis2, pcs2, err := attribute(w, 8)
	if err != nil {
		t.Fatalf("attribute (second pass): %v", err)
	}
	if len(pis2) != len(pis) || len(pcs2) != len(pcs) {
		t.Fatalf("attribution not deterministic: %d/%d π, %d/%d PCs", len(pis), len(pis2), len(pcs), len(pcs2))
	}
	for i := range pis {
		if pis[i] != pis2[i] {
			t.Fatalf("π attribution not deterministic at %d:\n %+v\n %+v", i, pis[i], pis2[i])
		}
	}
	for i := range pcs {
		if pcs[i] != pcs2[i] {
			t.Fatalf("PC attribution not deterministic at %d:\n %+v\n %+v", i, pcs[i], pcs2[i])
		}
	}
}

func TestAttributeTopKCaps(t *testing.T) {
	w := prepareAttrWorkload(t)
	pis, pcs, err := attribute(w, 1)
	if err != nil {
		t.Fatalf("attribute: %v", err)
	}
	if len(pis) > 1 || len(pcs) > 1 {
		t.Fatalf("TopK=1 not enforced: %d π, %d PCs", len(pis), len(pcs))
	}
}

func TestMaybeAttributeThresholdGate(t *testing.T) {
	o := &Options{Benchmarks: []string{"nn"}, Scale: 1, ScaleFactor: 4, Seed: 1}
	o.fillDefaults()
	row := BenchResult{Benchmark: "nn", Points: 3, Error: 5}

	// Nil Attr: no-op.
	o.maybeAttribute("fig6a", row, "l1-miss-rate", true)

	// Error below threshold: gated off.
	o.Attr = &AttrOptions{Threshold: 10}
	o.maybeAttribute("fig6a", row, "l1-miss-rate", true)
	if got := o.Attr.Reports(); len(got) != 0 {
		t.Fatalf("threshold 10 vs error 5: want 0 reports, got %d", len(got))
	}

	// Error above threshold: attributed.
	o.Attr = &AttrOptions{Threshold: 1, TopK: 4}
	o.maybeAttribute("fig6a", row, "l1-miss-rate", true)
	reports := o.Attr.Reports()
	if len(reports) != 1 {
		t.Fatalf("threshold 1 vs error 5: want 1 report, got %d", len(reports))
	}
	r := reports[0]
	if r.Experiment != "fig6a" || r.Benchmark != "nn" || r.Metric != "l1-miss-rate" || r.Unit != "pp" {
		t.Fatalf("report header wrong: %+v", r)
	}
	if len(r.Profiles) == 0 || len(r.Profiles) > 4 || len(r.PCs) == 0 || len(r.PCs) > 4 {
		t.Fatalf("report sections out of bounds: %d π, %d PCs", len(r.Profiles), len(r.PCs))
	}
}

func TestAttrReportWriters(t *testing.T) {
	reports := []*AttrReport{{
		Experiment: "fig6a", Benchmark: "nn", Metric: "l1-miss-rate",
		Error: 5.5, Unit: "pp", Threshold: 2,
		Profiles: []PiAttribution{{Pi: 0, ClonePi: 0, Weight: 1, CloneWeight: 0.9, ReuseTV: 0.1, SeqTV: 0, Score: 0.2}},
		PCs:      []PCAttribution{{PC: 0x40, Kind: "load", Freq: 0.7, CloneFreq: 0.6, InterTV: 0.2, IntraTV: 0.1, Score: 0.28}},
	}}

	var jbuf bytes.Buffer
	if err := WriteAttrJSON(&jbuf, reports); err != nil {
		t.Fatalf("WriteAttrJSON: %v", err)
	}
	var back []*AttrReport
	if err := json.Unmarshal(jbuf.Bytes(), &back); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if len(back) != 1 || back[0].Benchmark != "nn" || back[0].PCs[0].PC != 0x40 {
		t.Fatalf("round-trip mismatch: %+v", back)
	}

	var mbuf bytes.Buffer
	if err := WriteAttrMarkdown(&mbuf, reports); err != nil {
		t.Fatalf("WriteAttrMarkdown: %v", err)
	}
	md := mbuf.String()
	for _, want := range []string{"## fig6a / nn", "0x40", "| load |", "π profiles"} {
		if !strings.Contains(md, want) {
			t.Fatalf("markdown missing %q:\n%s", want, md)
		}
	}

	// Empty report set still renders valid output on both writers.
	jbuf.Reset()
	if err := WriteAttrJSON(&jbuf, nil); err != nil {
		t.Fatalf("WriteAttrJSON(nil): %v", err)
	}
	if strings.TrimSpace(jbuf.String()) != "[]" {
		t.Fatalf("empty JSON: %q", jbuf.String())
	}
	mbuf.Reset()
	if err := WriteAttrMarkdown(&mbuf, nil); err != nil {
		t.Fatalf("WriteAttrMarkdown(nil): %v", err)
	}
	if !strings.Contains(mbuf.String(), "No benchmark exceeded") {
		t.Fatalf("empty markdown: %q", mbuf.String())
	}
}
