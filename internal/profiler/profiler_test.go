package profiler

import (
	"bytes"
	"strings"
	"testing"

	"github.com/uteda/gmap/internal/gpu"
	"github.com/uteda/gmap/internal/trace"
	"github.com/uteda/gmap/internal/workloads"
)

// uniformTrace builds a 2-block, 64-thread trace where every thread runs
// LD a[4*tid] ; (loop 4x) LD b[4*tid + 256*j] ; ST c[4*tid].
func uniformTrace() *trace.KernelTrace {
	k := &trace.KernelTrace{Name: "uni", GridDim: 2, BlockDim: 32}
	for tid := 0; tid < 64; tid++ {
		tt := trace.ThreadTrace{ThreadID: tid}
		tt.Accesses = append(tt.Accesses, trace.Access{PC: 0x10, Addr: uint64(0x10000 + 4*tid), Kind: trace.Load})
		for j := 0; j < 4; j++ {
			tt.Accesses = append(tt.Accesses, trace.Access{PC: 0x18, Addr: uint64(0x20000 + 4*tid + 256*j), Kind: trace.Load})
		}
		tt.Accesses = append(tt.Accesses, trace.Access{PC: 0x20, Addr: uint64(0x30000 + 4*tid), Kind: trace.Store})
		k.Threads = append(k.Threads, tt)
	}
	return k
}

func TestProfileUniform(t *testing.T) {
	p, err := ProfileKernel(uniformTrace(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if p.Warps != 2 {
		t.Fatalf("Warps = %d", p.Warps)
	}
	if len(p.Insts) != 3 {
		t.Fatalf("Insts = %d, want 3", len(p.Insts))
	}
	if len(p.Profiles) != 1 {
		t.Fatalf("uniform kernel produced %d π profiles, want 1", len(p.Profiles))
	}
	if got := p.Q(0); got != 1.0 {
		t.Errorf("Q(0) = %v, want 1", got)
	}
	// Warp streams: PC0x10 x1, PC0x18 x4 requests (one line each: 32
	// threads x 4B = 128B... 256B stride per j so distinct lines), PC0x20 x1.
	pp := p.Profiles[0]
	if len(pp.Seq) != 6 {
		t.Errorf("π length = %d, want 6 (1 + 4 + 1)", len(pp.Seq))
	}
}

func TestProfileInterWarpStride(t *testing.T) {
	p, err := ProfileKernel(uniformTrace(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Warp 0 covers tids 0-31 (line 0x10000), warp 1 tids 32-63 (line
	// 0x10080): inter-warp stride 128 for every instruction.
	for i, inst := range p.Insts {
		key, freq, ok := inst.InterStride.Mode()
		if !ok || key != 128 || freq != 1.0 {
			t.Errorf("inst %d (pc %#x) inter-warp stride mode = (%d, %v, %v), want (128, 1, true)",
				i, inst.PC, key, freq, ok)
		}
	}
}

func TestProfileIntraWarpStride(t *testing.T) {
	p, err := ProfileKernel(uniformTrace(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	i := p.InstIndex(0x18)
	if i < 0 {
		t.Fatal("pc 0x18 missing")
	}
	key, freq, ok := p.Insts[i].IntraStride.Mode()
	if !ok || key != 256 || freq != 1.0 {
		t.Errorf("intra stride mode = (%d, %v, %v), want (256, 1, true)", key, freq, ok)
	}
	// Single-execution instructions have no intra strides.
	if p.Insts[p.InstIndex(0x10)].IntraStride.Total() != 0 {
		t.Error("pc 0x10 has intra strides")
	}
}

func TestProfileBaseAddresses(t *testing.T) {
	p, err := ProfileKernel(uniformTrace(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	wantBase := map[uint64]uint64{0x10: 0x10000, 0x18: 0x20000, 0x20: 0x30000}
	for _, inst := range p.Insts {
		if inst.Base != wantBase[inst.PC] {
			t.Errorf("pc %#x base = %#x, want %#x", inst.PC, inst.Base, wantBase[inst.PC])
		}
	}
}

func TestProfileCountsAndFrequency(t *testing.T) {
	p, err := ProfileKernel(uniformTrace(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Per warp: 1 + 4 + 1 = 6 requests; 2 warps -> 12 total.
	if p.TotalRequests != 12 {
		t.Fatalf("TotalRequests = %d, want 12", p.TotalRequests)
	}
	i := p.InstIndex(0x18)
	if f := p.InstFrequency(i); f < 0.66 || f > 0.67 {
		t.Errorf("pc 0x18 frequency = %v, want 2/3", f)
	}
	dom := p.DominantInsts()
	if p.Insts[dom[0]].PC != 0x18 {
		t.Errorf("dominant instruction = %#x, want 0x18", p.Insts[dom[0]].PC)
	}
}

func TestProfileKindPreserved(t *testing.T) {
	p, err := ProfileKernel(uniformTrace(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if p.Insts[p.InstIndex(0x20)].Kind != trace.Store {
		t.Error("store kind lost")
	}
	if p.Insts[p.InstIndex(0x10)].Kind != trace.Load {
		t.Error("load kind lost")
	}
}

// divergentTrace: half the warps execute {A,B}, half execute {A,C,C,C,C}
// so clustering must produce two π profiles.
func divergentTrace() *trace.KernelTrace {
	k := &trace.KernelTrace{Name: "div", GridDim: 4, BlockDim: 32}
	for tid := 0; tid < 128; tid++ {
		tt := trace.ThreadTrace{ThreadID: tid}
		warp := tid / 32
		tt.Accesses = append(tt.Accesses, trace.Access{PC: 0xA, Addr: uint64(0x10000 + 4*tid), Kind: trace.Load})
		if warp%2 == 0 {
			tt.Accesses = append(tt.Accesses, trace.Access{PC: 0xB, Addr: uint64(0x20000 + 4*tid), Kind: trace.Load})
		} else {
			for j := 0; j < 4; j++ {
				tt.Accesses = append(tt.Accesses, trace.Access{PC: 0xC, Addr: uint64(0x30000 + 4*tid + 128*j), Kind: trace.Load})
			}
		}
		k.Threads = append(k.Threads, tt)
	}
	return k
}

func TestProfileDivergentClusters(t *testing.T) {
	p, err := ProfileKernel(divergentTrace(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Profiles) != 2 {
		t.Fatalf("got %d π profiles, want 2", len(p.Profiles))
	}
	if p.Profiles[0].Count != 2 || p.Profiles[1].Count != 2 {
		t.Errorf("cluster sizes = %d, %d; want 2, 2",
			p.Profiles[0].Count, p.Profiles[1].Count)
	}
	if q := p.Q(0) + p.Q(1); q < 0.999 || q > 1.001 {
		t.Errorf("Q sums to %v", q)
	}
}

func TestSimilarity(t *testing.T) {
	cases := []struct {
		a, b []int
		want float64
	}{
		{[]int{1, 2, 3}, []int{1, 2, 3}, 1.0},
		{[]int{1, 2, 3}, []int{1, 2, 4}, 2.0 / 3},
		{[]int{1, 2}, []int{1, 2, 3, 4}, 0.5},
		{[]int{1}, []int{2}, 0},
		{nil, []int{1}, 0},
		{nil, nil, 0},
	}
	for _, c := range cases {
		if got := similarity(c.a, c.b); got != c.want {
			t.Errorf("similarity(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestClusterThreshold(t *testing.T) {
	// Sequences 90% similar must merge at Th=0.9 but split at Th=0.95.
	base := make([]int, 100)
	variant := make([]int, 100)
	for i := range base {
		base[i] = i % 3
		variant[i] = i % 3
	}
	for i := 0; i < 10; i++ {
		variant[i*10] = 7 // 10% positions differ
	}
	seqs := [][]int{base, base, base, variant}
	if got := len(clusterSequences(seqs, 0.9, 8)); got != 1 {
		t.Errorf("Th=0.90: %d clusters, want 1", got)
	}
	if got := len(clusterSequences(seqs, 0.95, 8)); got != 2 {
		t.Errorf("Th=0.95: %d clusters, want 2", got)
	}
}

func TestClusterCap(t *testing.T) {
	// 10 completely distinct paths, cap at 4.
	seqs := make([][]int, 10)
	for i := range seqs {
		seqs[i] = []int{i * 3, i*3 + 1, i*3 + 2}
	}
	clusters := clusterSequences(seqs, 0.9, 4)
	if len(clusters) != 4 {
		t.Fatalf("got %d clusters, want cap 4", len(clusters))
	}
	total := 0
	for _, c := range clusters {
		total += len(c.members)
	}
	if total != 10 {
		t.Errorf("clusters cover %d warps, want 10", total)
	}
}

func TestProfileReuseCaptured(t *testing.T) {
	// Thread accesses alternate between two lines -> strong reuse.
	k := &trace.KernelTrace{Name: "reuse", GridDim: 1, BlockDim: 32}
	for tid := 0; tid < 32; tid++ {
		tt := trace.ThreadTrace{ThreadID: tid}
		for j := 0; j < 8; j++ {
			tt.Accesses = append(tt.Accesses, trace.Access{
				PC: 0x5, Addr: uint64(0x1000 + (j%2)*0x80), Kind: trace.Load})
		}
		k.Threads = append(k.Threads, tt)
	}
	p, err := ProfileKernel(k, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := p.Profiles[0].Reuse
	if r.Total() == 0 {
		t.Fatal("no reuse samples")
	}
	// Stream per warp: lines A B A B A B A B -> distances inf inf 1 1 1 1 1 1.
	if r.Count(1) != 6 {
		t.Errorf("distance-1 count = %d, want 6: %v", r.Count(1), r)
	}
	if r.Count(-1) != 2 {
		t.Errorf("cold count = %d, want 2: %v", r.Count(-1), r)
	}
}

func TestProfileJSONRoundTrip(t *testing.T) {
	p, err := ProfileKernel(divergentTrace(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != p.Name || got.Warps != p.Warps || got.TotalRequests != p.TotalRequests {
		t.Errorf("round trip lost metadata: %+v vs %+v", got, p)
	}
	if len(got.Insts) != len(p.Insts) || len(got.Profiles) != len(p.Profiles) {
		t.Fatalf("round trip lost structure")
	}
	for i := range p.Insts {
		if got.Insts[i].PC != p.Insts[i].PC || got.Insts[i].Base != p.Insts[i].Base {
			t.Errorf("inst %d differs", i)
		}
		if got.Insts[i].InterStride.Total() != p.Insts[i].InterStride.Total() {
			t.Errorf("inst %d inter-stride histogram differs", i)
		}
	}
}

func TestReadJSONRejectsInvalid(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader(`{"name":"x"}`)); err == nil {
		t.Error("invalid profile accepted")
	}
	if _, err := ReadJSON(strings.NewReader(`not json`)); err == nil {
		t.Error("garbage accepted")
	}
}

func TestProfileEmptyTraceRejected(t *testing.T) {
	k := &trace.KernelTrace{Name: "empty", GridDim: 1, BlockDim: 32}
	for tid := 0; tid < 32; tid++ {
		k.Threads = append(k.Threads, trace.ThreadTrace{ThreadID: tid})
	}
	if _, err := ProfileKernel(k, DefaultConfig()); err == nil {
		t.Error("empty trace accepted")
	}
}

func TestProfileAllWorkloads(t *testing.T) {
	for _, s := range workloads.All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			tr, err := s.Trace(1)
			if err != nil {
				t.Fatal(err)
			}
			p, err := ProfileKernel(tr, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Validate(); err != nil {
				t.Fatal(err)
			}
			if p.TotalRequests == 0 {
				t.Fatal("no requests profiled")
			}
			// Q must sum to 1.
			var q float64
			for i := range p.Profiles {
				q += p.Q(i)
			}
			if q < 0.999 || q > 1.001 {
				t.Errorf("Q sums to %v", q)
			}
			if len(p.Profiles) > 8 {
				t.Errorf("M = %d exceeds cap", len(p.Profiles))
			}
		})
	}
}

func TestRegularWorkloadsSingleProfile(t *testing.T) {
	// Divergence-free workloads must collapse to one dominant π profile.
	for _, name := range []string{"kmeans", "blk", "scalarprod", "nn"} {
		s, _ := workloads.ByName(name)
		tr, err := s.Trace(1)
		if err != nil {
			t.Fatal(err)
		}
		p, err := ProfileKernel(tr, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Profiles) != 1 {
			t.Errorf("%s: %d π profiles, want 1", name, len(p.Profiles))
		}
	}
}

func TestKmeansProfileMatchesTable1(t *testing.T) {
	s, _ := workloads.ByName("kmeans")
	tr, err := s.Trace(1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ProfileKernel(tr, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	dom := p.DominantInsts()
	inst := p.Insts[dom[0]]
	if inst.PC != 0xe8 {
		t.Fatalf("dominant pc = %#x, want 0xe8", inst.PC)
	}
	if f := p.InstFrequency(dom[0]); f < 0.95 {
		t.Errorf("dominant frequency = %v, want ~1.0", f)
	}
	if key, _, _ := inst.InterStride.Mode(); key != 4352 {
		t.Errorf("dominant inter-warp stride = %d, want 4352", key)
	}
}

func BenchmarkProfileKernel(b *testing.B) {
	s, _ := workloads.ByName("bp")
	tr, err := s.Trace(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ProfileKernel(tr, DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// mumWarps coalesces mum at scale 8, the largest run tables in the tree
// (about 135k entries), for the benchmarks below.
func mumWarps(b *testing.B) (*trace.KernelTrace, []trace.WarpTrace) {
	s, _ := workloads.ByName("mum")
	tr, err := s.Trace(8)
	if err != nil {
		b.Fatal(err)
	}
	return tr, gpu.NewCoalescer(gpu.DefaultLineSize).BuildWarpTraces(tr)
}

func BenchmarkProfileWarps(b *testing.B) {
	tr, warps := mumWarps(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ProfileWarps(tr.Name, tr.GridDim, tr.BlockDim, warps, DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProfileJSON(b *testing.B) {
	tr, warps := mumWarps(b)
	p, err := ProfileWarps(tr.Name, tr.GridDim, tr.BlockDim, warps, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		b.Fatal(err)
	}
	file := buf.Bytes()
	b.Run("write", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var out bytes.Buffer
			if err := p.WriteJSON(&out); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("read", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ReadJSON(bytes.NewReader(file)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
