package profiler

import (
	"bytes"
	"testing"

	"github.com/uteda/gmap/internal/trace"
	"github.com/uteda/gmap/internal/workloads"
)

// stridedTrace builds a trace where every thread sweeps a fixed window:
// per-thread offsets are identical across warps (deterministic).
func stridedTrace(nWarps, iters int) *trace.KernelTrace {
	k := &trace.KernelTrace{Name: "sweep", GridDim: nWarps, BlockDim: 32}
	for tid := 0; tid < nWarps*32; tid++ {
		tt := trace.ThreadTrace{ThreadID: tid}
		for j := 0; j < iters; j++ {
			tt.Accesses = append(tt.Accesses, trace.Access{
				PC: 0x10, Addr: uint64(0x100000 + 4*tid + 128*j), Kind: trace.Load})
		}
		k.Threads = append(k.Threads, tt)
	}
	return k
}

func TestFootprintWindowCaptured(t *testing.T) {
	p, err := ProfileKernel(stridedTrace(4, 16), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	inst := p.Insts[p.InstIndex(0x10)]
	// Per warp: 16 executions at +128 from the first: offsets 0..15*128.
	if inst.OffLo != 0 || inst.OffHi != 15*128 {
		t.Errorf("footprint window = [%d, %d], want [0, %d]", inst.OffLo, inst.OffHi, 15*128)
	}
}

func TestAnchorWindowCaptured(t *testing.T) {
	p, err := ProfileKernel(stridedTrace(4, 16), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	inst := p.Insts[p.InstIndex(0x10)]
	// Warp anchors at +128 per warp: spread [0, 3*128].
	if inst.AnchorLo != 0 || inst.AnchorHi != 3*128 {
		t.Errorf("anchor window = [%d, %d], want [0, %d]", inst.AnchorLo, inst.AnchorHi, 3*128)
	}
}

func TestDeterminismDetected(t *testing.T) {
	p, err := ProfileKernel(stridedTrace(4, 16), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !p.Insts[p.InstIndex(0x10)].Deterministic {
		t.Error("warp-invariant instruction not marked deterministic")
	}
}

func TestDeterminismRejectsIrregular(t *testing.T) {
	// Per-warp offsets differ: warp w's second access jumps by 128*w.
	k := &trace.KernelTrace{Name: "irr", GridDim: 4, BlockDim: 32}
	for tid := 0; tid < 128; tid++ {
		w := tid / 32
		tt := trace.ThreadTrace{ThreadID: tid}
		tt.Accesses = append(tt.Accesses,
			trace.Access{PC: 0x10, Addr: uint64(0x100000 + 4*tid), Kind: trace.Load},
			trace.Access{PC: 0x10, Addr: uint64(0x100000 + 4*tid + 128*(w+1)*7), Kind: trace.Load},
		)
		k.Threads = append(k.Threads, tt)
	}
	p, err := ProfileKernel(k, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if p.Insts[p.InstIndex(0x10)].Deterministic {
		t.Error("warp-varying instruction marked deterministic")
	}
}

func TestDeterminismRejectsCountMismatch(t *testing.T) {
	// Warp 0 executes the PC twice, warp 1 once.
	k := &trace.KernelTrace{Name: "cnt", GridDim: 2, BlockDim: 32}
	for tid := 0; tid < 64; tid++ {
		tt := trace.ThreadTrace{ThreadID: tid}
		tt.Accesses = append(tt.Accesses, trace.Access{PC: 0x10, Addr: uint64(0x1000 + 4*tid), Kind: trace.Load})
		if tid < 32 {
			tt.Accesses = append(tt.Accesses, trace.Access{PC: 0x10, Addr: uint64(0x2000 + 4*tid), Kind: trace.Load})
		}
		k.Threads = append(k.Threads, tt)
	}
	p, err := ProfileKernel(k, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if p.Insts[p.InstIndex(0x10)].Deterministic {
		t.Error("count-mismatched instruction marked deterministic")
	}
}

func TestRunLengthsCaptured(t *testing.T) {
	// Each warp: 3 sweeps of 8 x (+128) separated by a -640 reset:
	// run-length histogram for +128 must be dominated by 7 (8 executions
	// = 7 strides), and -1024 runs are singletons.
	k := &trace.KernelTrace{Name: "runs", GridDim: 1, BlockDim: 32}
	for tid := 0; tid < 32; tid++ {
		tt := trace.ThreadTrace{ThreadID: tid}
		for sweep := 0; sweep < 3; sweep++ {
			for j := 0; j < 8; j++ {
				tt.Accesses = append(tt.Accesses, trace.Access{
					PC: 0x20, Addr: uint64(0x100000 + 4*tid + 128*j + 256*sweep), Kind: trace.Load})
			}
		}
		k.Threads = append(k.Threads, tt)
	}
	p, err := ProfileKernel(k, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	inst := p.Insts[p.InstIndex(0x20)]
	up, ok := inst.Runs[128]
	if !ok {
		t.Fatalf("no run histogram for +128: %v", inst.Runs)
	}
	if key, _, _ := up.Mode(); key != 7 {
		t.Errorf("dominant +128 run length = %d, want 7", key)
	}
	down, ok := inst.Runs[-640]
	if !ok {
		t.Fatalf("no run histogram for the sweep reset: %v", inst.Runs)
	}
	if key, _, _ := down.Mode(); key != 1 {
		t.Errorf("reset run length = %d, want 1", key)
	}
}

func TestRunsSurviveJSON(t *testing.T) {
	s, _ := workloads.ByName("cp")
	tr, err := s.Trace(1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ProfileKernel(tr, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Round trip through JSON.
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.Insts {
		if len(got.Insts[i].Runs) != len(p.Insts[i].Runs) {
			t.Fatalf("inst %d runs lost: %d != %d", i, len(got.Insts[i].Runs), len(p.Insts[i].Runs))
		}
		if got.Insts[i].Deterministic != p.Insts[i].Deterministic {
			t.Fatalf("inst %d determinism flag lost", i)
		}
		if got.Insts[i].OffLo != p.Insts[i].OffLo || got.Insts[i].AnchorHi != p.Insts[i].AnchorHi {
			t.Fatalf("inst %d windows lost", i)
		}
	}
}

func TestCompressReuseBoundsProfile(t *testing.T) {
	s, _ := workloads.ByName("hotspot") // scatter: thousands of distinct distances
	tr, err := s.Trace(1)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := ProfileKernel(tr, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.CompressReuse = true
	packed, err := ProfileKernel(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	plainKeys, packedKeys := 0, 0
	for i := range plain.Profiles {
		plainKeys += plain.Profiles[i].Reuse.Len()
		packedKeys += packed.Profiles[i].Reuse.Len()
	}
	if packedKeys*4 > plainKeys {
		t.Errorf("compression weak: %d -> %d reuse keys", plainKeys, packedKeys)
	}
	// Shape must survive: the serialized sizes differ but the cold
	// fraction is identical (cold is -1, inside the exact band).
	for i := range plain.Profiles {
		a, b := plain.Profiles[i].Reuse, packed.Profiles[i].Reuse
		if a.Count(-1) != b.Count(-1) || a.Total() != b.Total() {
			t.Errorf("profile %d lost mass or cold count", i)
		}
	}
	// And the serialized profile shrinks measurably.
	var pb, cb bytes.Buffer
	if err := plain.WriteJSON(&pb); err != nil {
		t.Fatal(err)
	}
	if err := packed.WriteJSON(&cb); err != nil {
		t.Fatal(err)
	}
	if cb.Len() >= pb.Len() {
		t.Errorf("compressed profile (%dB) not smaller than plain (%dB)", cb.Len(), pb.Len())
	}
}

func TestCompressReuseCloneAccuracy(t *testing.T) {
	// Log-binned reuse must not meaningfully change generated stream
	// reuse for a high-reuse workload.
	s, _ := workloads.ByName("kmeans")
	tr, err := s.Trace(1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.CompressReuse = true
	p, err := ProfileKernel(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var reused, total uint64
	for _, pp := range p.Profiles {
		total += pp.Reuse.Total()
		reused += pp.Reuse.Total() - pp.Reuse.Count(-1)
	}
	if frac := float64(reused) / float64(total); frac < 0.9 {
		t.Errorf("compressed kmeans reuse fraction = %.3f", frac)
	}
}
