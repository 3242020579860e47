package memsim

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"github.com/uteda/gmap/internal/cache"
	"github.com/uteda/gmap/internal/gpu"
	"github.com/uteda/gmap/internal/prefetch"
	"github.com/uteda/gmap/internal/rng"
	"github.com/uteda/gmap/internal/trace"
	"github.com/uteda/gmap/internal/workloads"
)

// streamWarps builds n warps (one block each) that each stream over their
// own region: every request a distinct line.
func streamWarps(n, reqs int) []trace.WarpTrace {
	warps := make([]trace.WarpTrace, n)
	for w := range warps {
		warps[w].WarpID = w
		warps[w].Block = w
		for j := 0; j < reqs; j++ {
			warps[w].Requests = append(warps[w].Requests, trace.Request{
				PC:   0x100,
				Addr: uint64(w)<<24 | uint64(j*128),
				Kind: trace.Load,
			})
		}
	}
	return warps
}

// loopWarps builds warps that re-access a small resident set repeatedly.
func loopWarps(n, reqs int) []trace.WarpTrace {
	warps := make([]trace.WarpTrace, n)
	for w := range warps {
		warps[w].WarpID = w
		warps[w].Block = w
		for j := 0; j < reqs; j++ {
			warps[w].Requests = append(warps[w].Requests, trace.Request{
				PC:   0x100,
				Addr: uint64(w)<<24 | uint64((j%4)*128),
				Kind: trace.Load,
			})
		}
	}
	return warps
}

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.NumCores = 4
	return cfg
}

func TestRunCompletes(t *testing.T) {
	sim, err := New(streamWarps(8, 50), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.Requests != 8*50 {
		t.Errorf("Requests = %d, want 400", m.Requests)
	}
	if m.Cycles == 0 {
		t.Error("no cycles elapsed")
	}
}

func TestStreamingMissesEverything(t *testing.T) {
	sim, err := New(streamWarps(4, 100), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.L1MissRate() != 1.0 {
		t.Errorf("streaming L1 miss rate = %v, want 1.0", m.L1MissRate())
	}
}

func TestLoopingHitsAfterWarmup(t *testing.T) {
	sim, err := New(loopWarps(4, 100), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	// 4 cold misses per warp out of 100 accesses.
	if got := m.L1MissRate(); got > 0.05 {
		t.Errorf("resident-set L1 miss rate = %v, want ~0.04", got)
	}
}

func TestLatencyFeedbackOrdersRuntime(t *testing.T) {
	// The same request count with misses everywhere must take longer than
	// with hits everywhere (latency feedback into the warp queue, §4.5).
	miss, err := New(streamWarps(4, 100), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	mm, err := miss.Run()
	if err != nil {
		t.Fatal(err)
	}
	hit, err := New(loopWarps(4, 100), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	hm, err := hit.Run()
	if err != nil {
		t.Fatal(err)
	}
	if mm.Cycles <= hm.Cycles {
		t.Errorf("miss-heavy run (%d cycles) not slower than hit-heavy (%d)", mm.Cycles, hm.Cycles)
	}
}

func TestBiggerL1FewerMisses(t *testing.T) {
	warps := loopWarps(2, 400)
	// Enlarge the loop set so it doesn't fit a tiny L1.
	for w := range warps {
		for j := range warps[w].Requests {
			warps[w].Requests[j].Addr = uint64(w)<<24 | uint64((j%64)*128)
		}
	}
	run := func(size int) float64 {
		cfg := smallConfig()
		cfg.L1 = cache.Config{SizeBytes: size, Ways: 4, LineSize: 128}
		sim, err := New(warps, cfg)
		if err != nil {
			t.Fatal(err)
		}
		m, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return m.L1MissRate()
	}
	small, big := run(4*1024), run(64*1024)
	if big >= small {
		t.Errorf("L1 64KB miss rate (%v) not below 4KB (%v)", big, small)
	}
}

func TestL2SeesOnlyL1Misses(t *testing.T) {
	sim, err := New(loopWarps(4, 100), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.L2.Accesses >= m.L1.Accesses {
		t.Errorf("L2 accesses (%d) not filtered by L1 (%d)", m.L2.Accesses, m.L1.Accesses)
	}
	if m.L2.Accesses < m.L1.Misses {
		t.Errorf("L2 accesses (%d) below L1 misses (%d)", m.L2.Accesses, m.L1.Misses)
	}
}

func TestBlockResidencyWaves(t *testing.T) {
	// 8 blocks, 1 core, 2 resident: must still complete, in waves.
	cfg := smallConfig()
	cfg.NumCores = 1
	cfg.BlocksPerCore = 2
	sim, err := New(streamWarps(8, 20), cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.Requests != 8*20 {
		t.Errorf("Requests = %d", m.Requests)
	}
}

func TestMSHRBoundStalls(t *testing.T) {
	// Many warps all missing: a tiny MSHR file must record stalls.
	cfg := smallConfig()
	cfg.NumCores = 1
	cfg.MSHRsPerCore = 2
	cfg.BlocksPerCore = 16
	sim, err := New(streamWarps(16, 30), cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.MSHRStalls == 0 {
		t.Error("no MSHR stalls with 2 MSHRs and 16 missing warps")
	}
	// And it must still complete all work.
	if m.Requests < 16*30 {
		t.Errorf("Requests = %d, want >= 480", m.Requests)
	}
}

func TestSchedulerPoliciesDiffer(t *testing.T) {
	warps := streamWarps(8, 50)
	run := func(p SchedPolicy, pself float64) Metrics {
		cfg := smallConfig()
		cfg.NumCores = 2
		cfg.Scheduler = p
		cfg.SchedPself = pself
		sim, err := New(warps, cfg)
		if err != nil {
			t.Fatal(err)
		}
		m, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	lrr := run(LRR, 0)
	gto := run(GTO, 0)
	pself := run(PSelf, 0.9)
	// All complete the same work.
	if lrr.Requests != gto.Requests || lrr.Requests != pself.Requests {
		t.Fatalf("request counts differ: %d %d %d", lrr.Requests, gto.Requests, pself.Requests)
	}
	// The policies must produce distinguishable DRAM behaviour on
	// streaming warps (GTO drains one warp's row at a time).
	if lrr.DRAM.RowBufferLocality() == gto.DRAM.RowBufferLocality() &&
		lrr.Cycles == gto.Cycles {
		t.Error("LRR and GTO produced identical behaviour; schedulers not differentiated")
	}
}

func TestGTOFocusesOneWarp(t *testing.T) {
	// With hit-latency-only work (all resident), GTO should drain warps
	// nearly one at a time: its row-buffer locality at DRAM is irrelevant,
	// so check scheduling directly via a tiny two-warp case where requests
	// hit L1 after warmup — we verify it completes and stays deterministic.
	cfg := smallConfig()
	cfg.NumCores = 1
	cfg.Scheduler = GTO
	sim, err := New(loopWarps(2, 50), cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	sim2, _ := New(loopWarps(2, 50), cfg)
	b, _ := sim2.Run()
	if a.Cycles != b.Cycles || a.L1.Hits != b.L1.Hits {
		t.Error("GTO run not deterministic")
	}
}

func TestPSelfDeterministicPerSeed(t *testing.T) {
	cfg := smallConfig()
	cfg.Scheduler = PSelf
	cfg.SchedPself = 0.5
	cfg.Seed = 9
	run := func() Metrics {
		sim, err := New(streamWarps(8, 40), cfg)
		if err != nil {
			t.Fatal(err)
		}
		m, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles || a.DRAM.RowHits != b.DRAM.RowHits {
		t.Error("PSelf not deterministic for fixed seed")
	}
}

func TestL1PrefetcherReducesMisses(t *testing.T) {
	// Strided streaming: the stride prefetcher should convert misses to
	// prefetch hits.
	warps := streamWarps(4, 200)
	base := smallConfig()
	noPf, err := New(warps, base)
	if err != nil {
		t.Fatal(err)
	}
	m0, err := noPf.Run()
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.L1Prefetch = prefetch.StrideConfig{TableSize: 64, Degree: 4, MinConfidence: 2, PerWarp: true}
	withPf, err := New(warps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := withPf.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m1.L1MissRate() >= m0.L1MissRate() {
		t.Errorf("prefetcher did not help: %.3f -> %.3f", m0.L1MissRate(), m1.L1MissRate())
	}
	if m1.L1.PrefetchUseful == 0 {
		t.Error("no useful prefetches recorded")
	}
}

func TestL2StreamPrefetcherReducesL2Misses(t *testing.T) {
	warps := streamWarps(4, 300)
	base := smallConfig()
	// Shrink L1 so the L2 sees the stream.
	base.L1 = cache.Config{SizeBytes: 4 * 1024, Ways: 4, LineSize: 128}
	noPf, err := New(warps, base)
	if err != nil {
		t.Fatal(err)
	}
	m0, err := noPf.Run()
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.L2Prefetch = prefetch.StreamConfig{Streams: 16, Window: 16, Degree: 4, LineSize: 128}
	withPf, err := New(warps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := withPf.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m1.L2MissRate() >= m0.L2MissRate() {
		t.Errorf("stream prefetcher did not help L2: %.3f -> %.3f", m0.L2MissRate(), m1.L2MissRate())
	}
}

// prefetchingConfig turns both prefetchers on.
func prefetchingConfig() Config {
	cfg := smallConfig()
	cfg.L1Prefetch = prefetch.DefaultStrideConfig()
	cfg.L2Prefetch = prefetch.DefaultStreamConfig()
	return cfg
}

// TestConfigValueReusable pins that a Config is a plain value: each run
// builds its own untrained prefetchers from it, so two runs of one value,
// one after the other or at once, give identical Metrics.
func TestConfigValueReusable(t *testing.T) {
	s, _ := workloads.ByName("nn")
	tr, err := s.Trace(1)
	if err != nil {
		t.Fatal(err)
	}
	warps := gpu.NewCoalescer(128).BuildWarpTraces(tr)
	cfg := prefetchingConfig()
	run := func() Metrics {
		sim, err := New(warps, cfg)
		if err != nil {
			t.Error(err)
			return Metrics{}
		}
		m, err := sim.Run()
		if err != nil {
			t.Error(err)
		}
		return m
	}
	first, second := run(), run()
	if first.L1.PrefetchFills == 0 || first.L2.PrefetchFills == 0 {
		t.Fatalf("prefetchers idle (L1 fills %d, L2 fills %d): the test exercises nothing",
			first.L1.PrefetchFills, first.L2.PrefetchFills)
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("second sequential run differs:\n first:  %+v\n second: %+v", first, second)
	}
	var wg sync.WaitGroup
	concurrent := make([]Metrics, 2)
	for i := range concurrent {
		wg.Add(1)
		go func() {
			defer wg.Done()
			concurrent[i] = run()
		}()
	}
	wg.Wait()
	for i, m := range concurrent {
		if !reflect.DeepEqual(first, m) {
			t.Errorf("concurrent run %d differs:\n want: %+v\n got:  %+v", i, first, m)
		}
	}
}

// TestConfigIsMapKey pins that a Config compares by content, prefetchers
// included, so it can key a per-configuration table.
func TestConfigIsMapKey(t *testing.T) {
	a := prefetchingConfig()
	seen := map[Config]int{a: 1}
	if seen[prefetchingConfig()] != 1 {
		t.Error("two Configs built alike are different keys")
	}
	b := a
	b.L2Prefetch.Window = 32
	if _, ok := seen[b]; ok {
		t.Error("configs with different stream windows share a key")
	}
	c := a
	c.L1Prefetch = prefetch.StrideConfig{}
	if _, ok := seen[c]; ok {
		t.Error("a config without the L1 prefetcher shares a key with one that has it")
	}
}

// TestPartialPrefetchConfigFails pins that only the zero value turns a
// prefetcher off: a half-set description is validated and rejected.
func TestPartialPrefetchConfigFails(t *testing.T) {
	warps := streamWarps(2, 10)
	l1 := smallConfig()
	l1.L1Prefetch = prefetch.StrideConfig{Degree: 2}
	if _, err := New(warps, l1); err == nil || !strings.Contains(err.Error(), "stride table size") {
		t.Errorf("half-set stride config: err = %v, want a table-size error", err)
	}
	l2 := smallConfig()
	l2.L2Prefetch = prefetch.StreamConfig{Window: 16}
	if _, err := New(warps, l2); err == nil || !strings.Contains(err.Error(), "streams") {
		t.Errorf("half-set stream config: err = %v, want a stream-count error", err)
	}
}

func TestEmptyAndInvalidInputs(t *testing.T) {
	if _, err := New(nil, smallConfig()); err == nil {
		t.Error("no warps accepted")
	}
	cfg := smallConfig()
	cfg.NumCores = 0
	if _, err := New(streamWarps(1, 1), cfg); err == nil {
		t.Error("zero cores accepted")
	}
	bad := smallConfig()
	bad.L1.LineSize = 100
	if _, err := New(streamWarps(1, 1), bad); err == nil {
		t.Error("bad L1 config accepted")
	}
}

func TestWarpsWithEmptyStreams(t *testing.T) {
	warps := streamWarps(4, 10)
	warps[2].Requests = nil // a warp with no memory work
	sim, err := New(warps, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.Requests != 3*10 {
		t.Errorf("Requests = %d, want 30", m.Requests)
	}
}

func TestSecondaryMissMerging(t *testing.T) {
	// Two warps on one core, same block, hitting the same lines back to
	// back: the second warp's cold miss on an in-flight line must merge.
	// A merged miss counts as an L1 miss but sends no DRAM read; without
	// merging, the 20 lines (which fit the L1, with no prefetcher) would
	// cost one L1 miss and one DRAM read each.
	warps := make([]trace.WarpTrace, 2)
	for w := range warps {
		warps[w].WarpID = w
		warps[w].Block = 0
		for j := 0; j < 20; j++ {
			warps[w].Requests = append(warps[w].Requests, trace.Request{
				PC: 1, Addr: uint64(j * 128), Kind: trace.Load,
			})
		}
	}
	cfg := smallConfig()
	cfg.NumCores = 1
	sim, err := New(warps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.L1.Misses <= m.DRAM.Reads {
		t.Errorf("no secondary-miss merges on identical interleaved streams: %d L1 misses, %d DRAM reads",
			m.L1.Misses, m.DRAM.Reads)
	}
}

func TestFullWorkloadThroughSimulator(t *testing.T) {
	s, _ := workloads.ByName("bp")
	tr, err := s.Trace(1)
	if err != nil {
		t.Fatal(err)
	}
	warps := gpu.NewCoalescer(128).BuildWarpTraces(tr)
	sim, err := New(warps, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.Requests == 0 || m.L1.Accesses == 0 {
		t.Fatalf("empty metrics: %+v", m)
	}
	rate := m.L1MissRate()
	if rate <= 0 || rate > 1 {
		t.Errorf("L1 miss rate = %v", rate)
	}
}

func BenchmarkSimulatorBP(b *testing.B) {
	s, _ := workloads.ByName("bp")
	tr, err := s.Trace(1)
	if err != nil {
		b.Fatal(err)
	}
	warps := gpu.NewCoalescer(128).BuildWarpTraces(tr)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sim, err := New(warps, DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestWriteThroughL1(t *testing.T) {
	// Stores with a write-through/no-allocate L1 never occupy L1 lines and
	// always reach the L2.
	warps := make([]trace.WarpTrace, 1)
	warps[0].WarpID = 0
	warps[0].Block = 0
	for j := 0; j < 50; j++ {
		warps[0].Requests = append(warps[0].Requests, trace.Request{
			PC: 1, Addr: uint64(j * 128), Kind: trace.Store})
	}
	cfg := smallConfig()
	cfg.NumCores = 1
	cfg.L1.Writes = cache.WriteThroughNoAllocate
	sim, err := New(warps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.L1.Writebacks != 50 {
		t.Errorf("L1 writebacks = %d, want 50 write-throughs", m.L1.Writebacks)
	}
	if m.L2.Accesses != 50 {
		t.Errorf("L2 accesses = %d, want every store", m.L2.Accesses)
	}
	// Stores never block the warp on DRAM: the run is short.
	if m.Cycles > 500 {
		t.Errorf("write-through stores blocked the warp: %d cycles", m.Cycles)
	}
}

func TestRequestConservationProperty(t *testing.T) {
	// Every demand request in the input stream is eventually issued,
	// whatever the configuration.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		nWarps := int(r.Uint64n(12)) + 1
		warps := make([]trace.WarpTrace, nWarps)
		total := 0
		for w := range warps {
			warps[w].WarpID = w
			warps[w].Block = int(r.Uint64n(4))
			n := int(r.Uint64n(40)) + 1
			for j := 0; j < n; j++ {
				kind := trace.Load
				if r.Bool(0.3) {
					kind = trace.Store
				}
				warps[w].Requests = append(warps[w].Requests, trace.Request{
					PC:   r.Uint64n(8) + 1,
					Addr: r.Uint64n(1 << 22),
					Kind: kind,
				})
				total++
			}
		}
		cfg := DefaultConfig()
		cfg.NumCores = int(r.Uint64n(4)) + 1
		cfg.MSHRsPerCore = int(r.Uint64n(8)) + 1
		cfg.BlocksPerCore = int(r.Uint64n(4)) + 1
		cfg.Scheduler = SchedPolicy(r.Uint64n(3))
		cfg.SchedPself = 0.5
		cfg.Seed = seed
		sim, err := New(warps, cfg)
		if err != nil {
			return false
		}
		m, err := sim.Run()
		if err != nil {
			return false
		}
		return int(m.Requests) == total && m.L1.Accesses == m.Requests
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
