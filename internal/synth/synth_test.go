package synth

import (
	"fmt"
	"testing"

	"github.com/uteda/gmap/internal/profiler"
	"github.com/uteda/gmap/internal/reuse"
	"github.com/uteda/gmap/internal/stats"
	"github.com/uteda/gmap/internal/trace"
	"github.com/uteda/gmap/internal/workloads"
)

func profileOf(t testing.TB, name string) *profiler.Profile {
	t.Helper()
	return scaledProfileOf(t, name, 1)
}

func scaledProfileOf(t testing.TB, name string, scale int) *profiler.Profile {
	t.Helper()
	s, ok := workloads.ByName(name)
	if !ok {
		t.Fatalf("workload %s missing", name)
	}
	tr, err := s.Trace(scale)
	if err != nil {
		t.Fatal(err)
	}
	p, err := profiler.ProfileKernel(tr, profiler.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestGenerateDeterministic(t *testing.T) {
	p := profileOf(t, "bp")
	opts := Options{Seed: 42, ScaleFactor: 2}
	a, err := Generate(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Requests != b.Requests || len(a.Warps) != len(b.Warps) {
		t.Fatal("same-seed proxies differ in shape")
	}
	for w := range a.Warps {
		for i := range a.Warps[w].Requests {
			if a.Warps[w].Requests[i] != b.Warps[w].Requests[i] {
				t.Fatalf("same-seed proxies differ at warp %d request %d", w, i)
			}
		}
	}
}

func TestGenerateSeedSensitivity(t *testing.T) {
	p := profileOf(t, "bfs") // stochastic path assignment matters here
	a, err := Generate(p, Options{Seed: 1, ScaleFactor: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(p, Options{Seed: 2, ScaleFactor: 1})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for w := range a.Warps {
		if len(a.Warps[w].Requests) != len(b.Warps[w].Requests) {
			same = false
			break
		}
		for i := range a.Warps[w].Requests {
			if a.Warps[w].Requests[i].Addr != b.Warps[w].Requests[i].Addr {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical proxies")
	}
}

func TestGeometryPreserved(t *testing.T) {
	p := profileOf(t, "kmeans")
	proxy, err := Generate(p, Options{Seed: 1, ScaleFactor: 1})
	if err != nil {
		t.Fatal(err)
	}
	if proxy.GridDim != p.GridDim || proxy.BlockDim != p.BlockDim {
		t.Errorf("geometry %dx%d != profile %dx%d",
			proxy.GridDim, proxy.BlockDim, p.GridDim, p.BlockDim)
	}
	if len(proxy.Warps) != p.Warps {
		t.Errorf("warp count %d != %d at scale 1", len(proxy.Warps), p.Warps)
	}
}

func TestScaleReducesRequests(t *testing.T) {
	p := profileOf(t, "blk")
	full, err := Generate(p, Options{Seed: 1, ScaleFactor: 1})
	if err != nil {
		t.Fatal(err)
	}
	quarter, err := Generate(p, Options{Seed: 1, ScaleFactor: 4})
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(full.Requests) / float64(quarter.Requests)
	if ratio < 3.2 || ratio > 5.0 {
		t.Errorf("scale-4 reduction ratio = %.2f (%d -> %d), want ~4",
			ratio, full.Requests, quarter.Requests)
	}
}

func TestExtremeScaleDropsWarps(t *testing.T) {
	p := profileOf(t, "nn")
	// nn π sequence is ~81 entries; factor 1000 must also shed warps.
	tiny, err := Generate(p, Options{Seed: 1, ScaleFactor: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if len(tiny.Warps) >= p.Warps {
		t.Errorf("warp count %d not reduced from %d", len(tiny.Warps), p.Warps)
	}
	if tiny.Requests == 0 {
		t.Error("degenerate proxy")
	}
}

func TestRequestsMatchProfileBudget(t *testing.T) {
	for _, name := range []string{"kmeans", "blk", "heartwall", "nn"} {
		p := profileOf(t, name)
		proxy, err := Generate(p, Options{Seed: 7, ScaleFactor: 1})
		if err != nil {
			t.Fatal(err)
		}
		ratio := float64(proxy.Requests) / float64(p.TotalRequests)
		if ratio < 0.9 || ratio > 1.1 {
			t.Errorf("%s: proxy has %d requests vs original %d (ratio %.2f)",
				name, proxy.Requests, p.TotalRequests, ratio)
		}
	}
}

func TestPCsComeFromProfile(t *testing.T) {
	p := profileOf(t, "bp")
	proxy, err := Generate(p, Options{Seed: 1, ScaleFactor: 2})
	if err != nil {
		t.Fatal(err)
	}
	valid := make(map[uint64]trace.Kind)
	for _, inst := range p.Insts {
		valid[inst.PC] = inst.Kind
	}
	for _, w := range proxy.Warps {
		for _, r := range w.Requests {
			kind, ok := valid[r.PC]
			if !ok {
				t.Fatalf("generated unknown pc %#x", r.PC)
			}
			if r.Kind != kind {
				t.Fatalf("pc %#x generated with kind %v, profile says %v", r.PC, r.Kind, kind)
			}
		}
	}
}

// strideHistogramOf collects per-PC intra-warp strides from warp streams.
func strideHistogramOf(warps []trace.WarpTrace, pc uint64) *stats.Histogram {
	h := stats.NewHistogram()
	for _, w := range warps {
		var prev uint64
		seen := false
		for _, r := range w.Requests {
			if r.PC != pc {
				continue
			}
			if seen {
				h.Add(int64(r.Addr) - int64(prev))
			}
			prev, seen = r.Addr, true
		}
	}
	return h
}

func TestProxyReplaysIntraStrides(t *testing.T) {
	// For a strongly regular workload the proxy's per-PC intra-stride
	// distribution must be close to the profiled one.
	p := profileOf(t, "blk")
	proxy, err := Generate(p, Options{Seed: 3, ScaleFactor: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, inst := range p.Insts {
		if inst.IntraStride.Total() == 0 {
			continue
		}
		got := strideHistogramOf(proxy.Warps, inst.PC)
		if got.Total() == 0 {
			t.Fatalf("pc %#x: no intra strides generated", inst.PC)
		}
		if d := stats.HistDistance(inst.IntraStride, got); d > 0.15 {
			t.Errorf("pc %#x: intra-stride distance %.3f\nprofile %v\nproxy  %v",
				inst.PC, d, inst.IntraStride.TopK(3), got.TopK(3))
		}
	}
}

func TestProxyReplaysInterWarpStrides(t *testing.T) {
	p := profileOf(t, "srad")
	proxy, err := Generate(p, Options{Seed: 3, ScaleFactor: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, inst := range p.Insts {
		if inst.InterStride.Total() == 0 {
			continue
		}
		// Measure first-access strides between consecutive proxy warps.
		first := make(map[int]uint64)
		for _, w := range proxy.Warps {
			for _, r := range w.Requests {
				if r.PC == inst.PC {
					first[w.WarpID] = r.Addr
					break
				}
			}
		}
		got := stats.NewHistogram()
		for w := 1; w < len(proxy.Warps); w++ {
			a, okA := first[w-1]
			b, okB := first[w]
			if okA && okB {
				got.Add(int64(b) - int64(a))
			}
		}
		if d := stats.HistDistance(inst.InterStride, got); d > 0.15 {
			t.Errorf("pc %#x: inter-warp stride distance %.3f", inst.PC, d)
		}
	}
}

// lineReuseFraction is the fraction of requests with finite line reuse
// across warp streams.
func lineReuseFraction(warps []trace.WarpTrace, lineSize uint64) float64 {
	total, reused := 0, 0
	for _, w := range warps {
		tr := reuse.NewTracker(len(w.Requests))
		for _, r := range w.Requests {
			if tr.Access(r.Addr/lineSize) != reuse.Cold {
				reused++
			}
			total++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(reused) / float64(total)
}

func TestProxyReplaysReuse(t *testing.T) {
	for _, c := range []struct {
		name string
		tol  float64
	}{
		{"kmeans", 0.15},
		{"heartwall", 0.15},
		{"blk", 0.10},
		{"scalarprod", 0.10},
	} {
		p := profileOf(t, c.name)
		proxy, err := Generate(p, Options{Seed: 11, ScaleFactor: 1})
		if err != nil {
			t.Fatal(err)
		}
		// Original reuse fraction from the profile's own P_R.
		var origReused, origTotal uint64
		for _, pp := range p.Profiles {
			origTotal += pp.Reuse.Total()
			origReused += pp.Reuse.Total() - pp.Reuse.Count(reuse.Cold)
		}
		orig := float64(origReused) / float64(origTotal)
		got := lineReuseFraction(proxy.Warps, p.LineSize)
		if got < orig-c.tol || got > orig+c.tol {
			t.Errorf("%s: proxy reuse fraction %.3f vs original %.3f (tol %.2f)",
				c.name, got, orig, c.tol)
		}
	}
}

func TestObfuscationHidesBases(t *testing.T) {
	p := profileOf(t, "nn")
	plain, err := Generate(p, Options{Seed: 1, ScaleFactor: 1})
	if err != nil {
		t.Fatal(err)
	}
	obf, err := Generate(p, Options{Seed: 1, ScaleFactor: 1, Obfuscate: true, ObfuscationKey: 0xdead})
	if err != nil {
		t.Fatal(err)
	}
	// Addresses must differ...
	sameAddrs := 0
	total := 0
	for w := range plain.Warps {
		for i := range plain.Warps[w].Requests {
			total++
			if plain.Warps[w].Requests[i].Addr == obf.Warps[w].Requests[i].Addr {
				sameAddrs++
			}
		}
	}
	if float64(sameAddrs)/float64(total) > 0.01 {
		t.Errorf("obfuscation left %d/%d addresses unchanged", sameAddrs, total)
	}
	// ...but per-PC stride structure must be preserved exactly (same seed
	// means identical sampling decisions).
	for _, inst := range p.Insts {
		a := strideHistogramOf(plain.Warps, inst.PC)
		b := strideHistogramOf(obf.Warps, inst.PC)
		if d := stats.HistDistance(a, b); d > 0.01 {
			t.Errorf("pc %#x: obfuscation distorted strides (distance %.3f)", inst.PC, d)
		}
	}
}

func TestObfuscationKeyMatters(t *testing.T) {
	p := profileOf(t, "nn")
	a, _ := Generate(p, Options{Seed: 1, ScaleFactor: 1, Obfuscate: true, ObfuscationKey: 1})
	b, _ := Generate(p, Options{Seed: 1, ScaleFactor: 1, Obfuscate: true, ObfuscationKey: 2})
	if a.Warps[0].Requests[0].Addr == b.Warps[0].Requests[0].Addr {
		t.Error("different obfuscation keys produced the same layout")
	}
}

func TestObfuscatedAddressesAligned(t *testing.T) {
	p := profileOf(t, "nn")
	obf, err := Generate(p, Options{Seed: 1, ScaleFactor: 1, Obfuscate: true, ObfuscationKey: 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range obf.Warps {
		for _, r := range w.Requests {
			if r.Addr >= 1<<41 {
				t.Fatalf("obfuscated address %#x outside synthetic space", r.Addr)
			}
		}
	}
}

func TestGenerateAllWorkloads(t *testing.T) {
	for _, s := range workloads.All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			p := profileOf(t, s.Name)
			proxy, err := Generate(p, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if proxy.Requests == 0 {
				t.Fatal("empty proxy")
			}
			// Default scale ~4: proxy should be meaningfully smaller.
			if float64(proxy.Requests) > 0.5*float64(p.TotalRequests) {
				t.Errorf("proxy %d requests vs original %d: not miniaturized",
					proxy.Requests, p.TotalRequests)
			}
		})
	}
}

func TestGenerateRejectsInvalidProfile(t *testing.T) {
	if _, err := Generate(&profiler.Profile{Name: "bad"}, DefaultOptions()); err == nil {
		t.Error("invalid profile accepted")
	}
}

// BenchmarkGenerate times clone generation on bp at scale 1 and on mum at
// scale 8, whose profile holds about 135k run-table entries.
func BenchmarkGenerate(b *testing.B) {
	for _, c := range []struct {
		name  string
		scale int
	}{{"bp", 1}, {"mum", 8}} {
		p := scaledProfileOf(b, c.name, c.scale)
		b.Run(fmt.Sprintf("%s-x%d", c.name, c.scale), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Generate(p, Options{Seed: uint64(i), ScaleFactor: 4}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
