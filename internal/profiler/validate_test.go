package profiler

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"github.com/uteda/gmap/internal/obs"
	"github.com/uteda/gmap/internal/stats"
	"github.com/uteda/gmap/internal/trace"
)

// validProfile builds a minimal profile that passes Validate, for the
// corruption table below to mutate.
func validProfile() *Profile {
	h := stats.NewHistogram()
	h.Add(0)
	return &Profile{
		Name:     "v",
		GridDim:  1,
		BlockDim: 32,
		LineSize: 128,
		Warps:    1,
		Insts: []StaticInst{{
			PC: 0x10, Kind: trace.Load, InterStride: h, IntraStride: h, Count: 1,
		}},
		Profiles: []PiProfile{{Seq: []int{0}, Count: 1, Reuse: h}},
	}
}

func TestValidateRejectsCorruptProbabilities(t *testing.T) {
	if err := validProfile().Validate(); err != nil {
		t.Fatalf("baseline profile invalid: %v", err)
	}
	cases := []struct {
		name    string
		mutate  func(*Profile)
		wantSub string
	}{
		{"pself above one", func(p *Profile) { p.SchedPself = 1.5 }, "not a probability"},
		{"pself negative", func(p *Profile) { p.SchedPself = -0.25 }, "not a probability"},
		{"pself nan", func(p *Profile) { p.SchedPself = math.NaN() }, "not a probability"},
		{"negative warps", func(p *Profile) { p.Warps = -3 }, "negative warp count"},
		{"inverted offset window", func(p *Profile) { p.Insts[0].OffLo, p.Insts[0].OffHi = 8, -8 }, "offset window"},
		{"inverted anchor window", func(p *Profile) { p.Insts[0].AnchorLo, p.Insts[0].AnchorHi = 8, -8 }, "anchor window"},
		{"all-zero pi weights", func(p *Profile) { p.Profiles[0].Count = 0 }, "π weights"},
	}
	for _, c := range cases {
		p := validProfile()
		c.mutate(p)
		err := p.Validate()
		if err == nil {
			t.Errorf("%s: corrupt profile accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.wantSub)
		}
	}
}

// TestReadJSONRejectsNullHistograms checks that a profile whose JSON
// holds null for a histogram fails to load, naming where the null is,
// instead of loading and panicking in the generator.
func TestReadJSONRejectsNullHistograms(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Profile)
		wantSub string
	}{
		{"inter_stride", func(p *Profile) { p.Insts[0].InterStride = nil }, "inst 0 (pc 0x10) has a null stride"},
		{"intra_stride", func(p *Profile) { p.Insts[0].IntraStride = nil }, "inst 0 (pc 0x10) has a null stride"},
		{"run table entry", func(p *Profile) {
			p.Insts[0].Runs = map[int64]*stats.Histogram{128: p.Insts[0].IntraStride, -640: nil}
		}, "inst 0 (pc 0x10) has a null run-length"},
		{"reuse", func(p *Profile) { p.Profiles[0].Reuse = nil }, "π[0] has a null reuse"},
	}
	for _, c := range cases {
		p := validProfile()
		c.mutate(p)
		var buf bytes.Buffer
		if err := p.WriteJSON(&buf); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !strings.Contains(buf.String(), "null") {
			t.Fatalf("%s: the profile JSON holds no null:\n%s", c.name, buf.String())
		}
		_, err := ReadJSON(&buf)
		if err == nil {
			t.Errorf("%s: null histogram accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.wantSub)
		}
	}
}

func TestReadAppJSONRejectsNullKernel(t *testing.T) {
	in := `{"name":"a","kernels":[null],"launches":[0]}`
	if _, err := ReadAppJSON(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), "null") {
		t.Fatalf("null kernel: err = %v", err)
	}
}

func TestReadJSONReportsOffset(t *testing.T) {
	for _, in := range []string{
		`{"name":"x","grid_dim":"oops"}`,
		`{"name":"x","insts":[{"runs":{"1.5":{"1":1}}}]}`,
	} {
		_, err := ReadJSON(strings.NewReader(in))
		if err == nil || !strings.Contains(err.Error(), "offset") {
			t.Errorf("%s: type error lost its position: err = %v", in, err)
		}
	}
}

// TestLineSizeCheckedBeforeCoalescing checks that a coalescing line size
// that is not a power of two fails at every profiler entry point before
// any warp is coalesced.
func TestLineSizeCheckedBeforeCoalescing(t *testing.T) {
	reg := obs.New()
	cfg := DefaultConfig()
	cfg.LineSize = 100
	cfg.Obs = reg
	tr := uniformTrace()
	if _, err := ProfileKernel(tr, cfg); err == nil || !strings.Contains(err.Error(), "not a power of two") {
		t.Errorf("ProfileKernel with line size 100: err = %v", err)
	}
	app := &trace.Application{Name: "app", Launches: []*trace.KernelTrace{tr}}
	if _, err := ProfileApplication(app, cfg); err == nil || !strings.Contains(err.Error(), "not a power of two") {
		t.Errorf("ProfileApplication with line size 100: err = %v", err)
	}
	if n := reg.Histogram("coalesce.txns_per_request").Count(); n != 0 {
		t.Errorf("coalescer observed %d instructions before the line size was rejected", n)
	}
	if n := reg.Histogram("phase.profile.coalesce.ns").Count(); n != 0 {
		t.Errorf("profile.coalesce ran %d times before the line size was rejected", n)
	}
}
