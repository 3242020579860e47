package main

import (
	"bytes"
	"io"
	"runtime"
	"strings"

	"github.com/uteda/gmap"
	"github.com/uteda/gmap/internal/cache"
	"github.com/uteda/gmap/internal/core"
	"github.com/uteda/gmap/internal/eval"
	obstrace "github.com/uteda/gmap/internal/obs/trace"
	"github.com/uteda/gmap/internal/profiler"
	"github.com/uteda/gmap/internal/reuse"
	"github.com/uteda/gmap/internal/stats"
	"github.com/uteda/gmap/internal/workloads"
)

// probe makes the harness's calls into the program's layers. A probe
// with a tracer records one span per call, named <layer>.<op>, and the
// bytes the call allocated; a probe without one only makes the calls.
// Either way it counts the operations and the work that the per-layer
// metrics divide by.
type probe struct {
	tr    *obstrace.Tracer
	root  *obstrace.Span
	alloc map[string]uint64
	ms    runtime.MemStats

	ops, failed int
	n           tally
}

// tally is the work the layers did during a pass.
type tally struct {
	accesses   uint64 // accesses emulated
	coalesced  uint64 // accesses the gpu layer coalesced
	gpuReqs    uint64 // requests the gpu layer produced
	profReqs   uint64 // requests profiled
	piProfiles int
	cloneOrig  uint64 // original requests of the profiles cloned
	proxyReqs  uint64
	origBytes  int // encoded original traces
	proxyBytes int // encoded clones

	simReqs, simCycles, mshrStalls uint64
	l1, l2                         cache.Stats
	dramReqs, rowHits, rowAll      uint64
	reads                          uint64
	queueSum, readLatSum           float64
}

func newTracedProbe(root string) *probe {
	tr := obstrace.New()
	return &probe{tr: tr, root: tr.Root(root), alloc: make(map[string]uint64)}
}

// call makes one call into a layer.
func (p *probe) call(layer, op string, f func() error) error {
	p.ops++
	var err error
	if p.tr == nil {
		err = f()
	} else {
		runtime.ReadMemStats(&p.ms)
		before := p.ms.TotalAlloc
		sp := p.root.Child(layer + "." + op)
		err = f()
		sp.End()
		runtime.ReadMemStats(&p.ms)
		p.alloc[layer] += p.ms.TotalAlloc - before
	}
	if err != nil {
		p.failed++
	}
	return err
}

// layerMetrics derives the per-layer metrics from the recorded spans, so
// the metrics and trace.json always agree, and from the work tallies. A
// layer's self time is the sum of its spans; they never nest.
func (p *probe) layerMetrics(m map[string]float64) {
	secs := make(map[string]float64) // by span name and by layer
	calls := make(map[string]float64)
	var wall, covered float64
	for _, e := range p.tr.Events() {
		d := e.DurUS / 1e6
		if e.Parent == 0 {
			wall = d
			continue
		}
		layer, _, _ := strings.Cut(e.Name, ".")
		secs[e.Name] += d
		secs[layer] += d
		calls[layer]++
		covered += d
	}
	n := &p.n
	mb := func(b float64) float64 { return b / (1 << 20) }
	alloc := func(layer string) float64 { return mb(float64(p.alloc[layer])) }
	nsPer := func(s float64, count uint64) float64 { return ratio(s*1e9, float64(count)) }

	m["kernelsim.self_s"] = secs["kernelsim"]
	m["kernelsim.calls"] = calls["kernelsim"]
	m["kernelsim.accesses"] = float64(n.accesses)
	m["kernelsim.ns_per_access"] = nsPer(secs["kernelsim"], n.accesses)
	m["kernelsim.alloc_mb"] = alloc("kernelsim")

	m["gpu.self_s"] = secs["gpu"]
	m["gpu.calls"] = calls["gpu"]
	m["gpu.requests"] = float64(n.gpuReqs)
	m["gpu.accesses_per_req"] = ratio(float64(n.coalesced), float64(n.gpuReqs))
	m["gpu.ns_per_req"] = nsPer(secs["gpu"], n.gpuReqs)
	m["gpu.alloc_mb"] = alloc("gpu")

	m["profiler.self_s"] = secs["profiler"]
	m["profiler.calls"] = calls["profiler"]
	m["profiler.ns_per_req"] = nsPer(secs["profiler"], n.profReqs)
	m["profiler.alloc_mb"] = alloc("profiler")
	m["profiler.pi_profiles"] = float64(n.piProfiles)

	m["synth.self_s"] = secs["synth"]
	m["synth.calls"] = calls["synth"]
	m["synth.proxy_reqs"] = float64(n.proxyReqs)
	m["synth.req_ratio"] = ratio(float64(n.cloneOrig), float64(n.proxyReqs))
	m["synth.alloc_mb"] = alloc("synth")

	m["trace.write_s"] = secs["trace.write"]
	m["trace.read_s"] = secs["trace.read"]
	m["trace.orig_mb"] = mb(float64(n.origBytes))
	m["trace.proxy_mb"] = mb(float64(n.proxyBytes))
	m["trace.alloc_mb"] = alloc("trace")

	m["memsim.self_s"] = secs["memsim"]
	m["memsim.calls"] = calls["memsim"]
	m["memsim.orig_self_s"] = secs["memsim.orig"]
	m["memsim.proxy_self_s"] = secs["memsim.proxy"]
	m["memsim.sim_reqs"] = float64(n.simReqs)
	m["memsim.sim_cycles"] = float64(n.simCycles)
	m["memsim.ns_per_req"] = nsPer(secs["memsim"], n.simReqs)
	m["memsim.alloc_mb"] = alloc("memsim")
	m["memsim.mshr_stalls"] = float64(n.mshrStalls)
	m["memsim.clone_speedup"] = ratio(secs["memsim.orig"], secs["memsim.proxy"])

	m["cache.l1_accesses"] = float64(n.l1.Accesses)
	m["cache.l1_miss_rate"] = n.l1.MissRate()
	m["cache.l2_accesses"] = float64(n.l2.Accesses)
	m["cache.l2_miss_rate"] = n.l2.MissRate()

	m["dram.requests"] = float64(n.dramReqs)
	m["dram.row_hit_rate"] = ratio(float64(n.rowHits), float64(n.rowAll))
	m["dram.avg_queue_len"] = ratio(n.queueSum, float64(n.dramReqs))
	m["dram.avg_read_lat"] = ratio(n.readLatSum, float64(n.reads))

	m["bench.traced_wall_s"] = wall
	m["bench.coverage"] = ratio(covered, wall)
}

// settle reports the probe's operation counts as the outcome's.
func (p *probe) settle(out *outcome) {
	out.attempted, out.failed = p.ops, p.failed
}

func (p *probe) emulate(name string, scale int) (*gmap.KernelTrace, error) {
	var tr *gmap.KernelTrace
	err := p.call("kernelsim", "emulate", func() (err error) {
		tr, err = gmap.BenchmarkTrace(name, scale)
		return err
	})
	if err != nil {
		return nil, err
	}
	p.n.accesses += uint64(tr.NumAccesses())
	return tr, nil
}

func (p *probe) coalesce(tr *gmap.KernelTrace, lineSize uint64) []gmap.WarpTrace {
	var warps []gmap.WarpTrace
	_ = p.call("gpu", "coalesce", func() error {
		warps = gmap.Coalesce(tr, lineSize)
		return nil
	})
	p.n.coalesced += uint64(tr.NumAccesses())
	for i := range warps {
		p.n.gpuReqs += uint64(len(warps[i].Requests))
	}
	return warps
}

func (p *probe) profile(tr *gmap.KernelTrace) (*gmap.Profile, error) {
	var prof *gmap.Profile
	err := p.call("profiler", "profile", func() (err error) {
		prof, err = gmap.ProfileTrace(tr, gmap.DefaultProfileConfig())
		return err
	})
	if err != nil {
		return nil, err
	}
	p.n.profReqs += prof.TotalRequests
	p.n.piProfiles += len(prof.Profiles)
	return prof, nil
}

func (p *probe) generate(prof *gmap.Profile, seed uint64, factor float64) (*gmap.Proxy, error) {
	var px *gmap.Proxy
	err := p.call("synth", "generate", func() (err error) {
		px, err = gmap.Generate(prof, gmap.GenerateOptions{Seed: seed, ScaleFactor: factor})
		return err
	})
	if err != nil {
		return nil, err
	}
	p.n.cloneOrig += prof.TotalRequests
	p.n.proxyReqs += uint64(px.Requests)
	return px, nil
}

// simulate runs one stream through the memory hierarchy; side is "orig"
// or "proxy".
func (p *probe) simulate(side string, warps []gmap.WarpTrace, cfg gmap.SimConfig) (gmap.Metrics, error) {
	var m gmap.Metrics
	err := p.call("memsim", side, func() (err error) {
		m, err = gmap.SimulateWarps(warps, cfg)
		return err
	})
	if err != nil {
		return m, err
	}
	n := &p.n
	n.simReqs += m.Requests
	n.simCycles += m.Cycles
	n.mshrStalls += m.MSHRStalls
	n.l1.Add(m.L1)
	n.l2.Add(m.L2)
	d := m.DRAM
	n.dramReqs += d.Requests
	n.rowHits += d.RowHits
	n.rowAll += d.RowHits + d.RowMisses + d.RowConflicts
	n.reads += d.Reads
	n.queueSum += d.AvgQueueLen() * float64(d.Requests)
	n.readLatSum += d.AvgReadLatency() * float64(d.Reads)
	return m, nil
}

// simulatePair simulates one configuration on both sides of a clone,
// each with a fresh configuration as eval makes one per run.
func (p *probe) simulatePair(c *clone, g eval.ConfigGen) (om, pm gmap.Metrics, err error) {
	cfg, err := g.Make()
	if err != nil {
		return om, pm, err
	}
	if om, err = p.simulate("orig", c.warps, cfg); err != nil {
		return om, pm, err
	}
	if cfg, err = g.Make(); err != nil {
		return om, pm, err
	}
	pm, err = p.simulate("proxy", c.proxy.Warps, cfg)
	return om, pm, err
}

// roundTrip writes v with a codec and reads it back, returning what was
// read and the encoded size.
func roundTrip[T any](p *probe, v T, write func(io.Writer, T) error, read func(io.Reader) (T, error)) (T, int, error) {
	var buf bytes.Buffer
	var back T
	if err := p.call("trace", "write", func() error { return write(&buf, v) }); err != nil {
		return back, 0, err
	}
	n := buf.Len()
	err := p.call("trace", "read", func() (err error) {
		back, err = read(&buf)
		return err
	})
	return back, n, err
}

// clone is one benchmark's pipeline: the original trace and its
// coalesced form, the profile and the generated clone.
type clone struct {
	tr    *gmap.KernelTrace
	warps []gmap.WarpTrace
	prof  *gmap.Profile
	proxy *gmap.Proxy
}

// build runs the file-based clone chain for one benchmark: emulate, then
// write and read back the trace, profile it, write and read back the
// profile, generate the clone, and write and read it back. Each stage
// works on what the codec before it read back, as the CLI chain
// gmap-trace, gmap-profile, gmap-generate does through files.
func (p *probe) build(name string, scale int, seed uint64, factor float64) (*clone, error) {
	tr, err := p.emulate(name, scale)
	if err != nil {
		return nil, err
	}
	tr, n, err := roundTrip(p, tr, gmap.WriteTrace, gmap.ReadTrace)
	if err != nil {
		return nil, err
	}
	p.n.origBytes += n
	prof, err := p.profile(tr)
	if err != nil {
		return nil, err
	}
	if prof, _, err = roundTrip(p, prof, gmap.WriteProfile, gmap.ReadProfile); err != nil {
		return nil, err
	}
	px, err := p.generate(prof, seed, factor)
	if err != nil {
		return nil, err
	}
	if px, n, err = roundTrip(p, px, gmap.WriteProxy, gmap.ReadProxy); err != nil {
		return nil, err
	}
	p.n.proxyBytes += n
	return &clone{tr: tr, prof: prof, proxy: px}, nil
}

// prepare builds one benchmark's clone at scale 1, as core.Prepare does
// but through the codecs, and coalesces the original for simulation.
func (p *probe) prepare(name string, seed uint64, factor float64, out *outcome) (*clone, error) {
	c, err := p.build(name, 1, seed, factor)
	if err != nil {
		return nil, err
	}
	c.warps = p.coalesce(c.tr, gmap.DefaultProfileConfig().LineSize)
	c.tr = nil
	out.profiles = append(out.profiles, c.prof)
	return c, nil
}

// pairs is one benchmark's paired series of one metric across a sweep.
type pairs struct{ orig, prox []float64 }

// figSeries holds a figure's paired series by benchmark, then metric.
type figSeries [][]pairs

// sweepTraced simulates every configuration on both sides of each
// benchmark's clone, one simulation at a time, and records each point as
// eval's checkpoint payload carries it: one metric as a number, several
// as an array.
func sweepTraced(o opts, p *probe, out *outcome, exp string, gens []eval.ConfigGen, metrics ...core.Metric) (figSeries, error) {
	names := o.figureBenchmarks()
	s := make(figSeries, len(names))
	for bi, name := range names {
		s[bi] = make([]pairs, len(metrics))
		c, err := p.prepare(name, o.seed, scaleFactor, out)
		if err != nil {
			return nil, err
		}
		for _, g := range gens {
			om, pm, err := p.simulatePair(c, g)
			if err != nil {
				return nil, err
			}
			ov := make([]float64, len(metrics))
			pv := make([]float64, len(metrics))
			for mi, m := range metrics {
				ov[mi], pv[mi] = m.Fn(om), m.Fn(pm)
				s[bi][mi].orig = append(s[bi][mi].orig, ov[mi])
				s[bi][mi].prox = append(s[bi][mi].prox, pv[mi])
			}
			var ox, px any = ov, pv
			if len(metrics) == 1 {
				ox, px = ov[0], pv[0]
			}
			if err := out.orig.value(exp, "orig", ox); err != nil {
				return nil, err
			}
			if err := out.proxy.value(exp, "prox", px); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

// avgError is a figure's headline error for metric mi: the mean over
// benchmark rows of each row's error, in percentage points for rates and
// relative percent for magnitudes, computed as eval computes them.
func (s figSeries) avgError(mi int, asRate bool) float64 {
	errs := make([]float64, len(s))
	for bi, row := range s {
		ps := row[mi]
		if asRate {
			var sum float64
			for i := range ps.orig {
				sum += stats.AbsError(ps.orig[i], ps.prox[i])
			}
			errs[bi] = sum / float64(len(ps.orig))
		} else {
			c := core.Comparison{Original: ps.orig, Proxy: ps.prox}
			errs[bi] = c.MeanAbsPctError()
		}
	}
	return stats.Mean(errs)
}

// avgCorr is a figure's headline correlation for metric mi.
func (s figSeries) avgCorr(mi int) float64 {
	corrs := make([]float64, len(s))
	for bi, row := range s {
		c := core.Comparison{Original: row[mi].orig, Proxy: row[mi].prox}
		corrs[bi] = c.Correlation()
	}
	return stats.Mean(corrs)
}

func tracedFig6a(o opts, p *probe) (*outcome, error) {
	out := &outcome{}
	defer p.settle(out)
	s, err := sweepTraced(o, p, out, "fig6a", eval.L1Sweep(0), core.L1MissRate)
	if err != nil {
		return out, err
	}
	out.setFig6a(s.avgError(0, true), s.avgCorr(0))
	return out, nil
}

func tracedL2DRAM(o opts, p *probe) (*outcome, error) {
	out := &outcome{}
	defer p.settle(out)
	s6b, err := sweepTraced(o, p, out, "fig6b", eval.L2Sweep(0), core.L2MissRate)
	if err != nil {
		return out, err
	}
	s7, err := sweepTraced(o, p, out, "fig7", eval.DRAMSweep(0),
		core.DRAMRowBufferLocality, core.DRAMQueueLen, core.DRAMReadLatency, core.DRAMWriteLatency)
	if err != nil {
		return out, err
	}
	out.setL2DRAM(s6b.avgError(0, true), s6b.avgCorr(0), s7.avgError(0, true), s7.avgError(1, false), s7.avgError(2, false))
	return out, nil
}

// fig8Factors are Fig 8's miniaturization levels.
var fig8Factors = []float64{1, 2, 4, 8, 16}

func tracedClone(o opts, p *probe) (*outcome, error) {
	out := &outcome{}
	defer p.settle(out)
	for _, spec := range workloads.Table1Set() {
		tr, err := p.emulate(spec.Name, 1)
		if err != nil {
			return out, err
		}
		prof, err := p.profile(tr)
		if err != nil {
			return out, err
		}
		for _, r := range table1Rows(spec.Name, prof) {
			out.orig.row("table1", r)
		}
	}
	base := eval.ConfigGen{Make: func() (gmap.SimConfig, error) { return gmap.DefaultSimConfig(), nil }}
	var accs []float64
	for _, name := range o.figureBenchmarks() {
		for _, factor := range fig8Factors {
			c, err := p.prepare(name, o.seed, factor, out)
			if err != nil {
				return out, err
			}
			om, pm, err := p.simulatePair(c, base)
			if err != nil {
				return out, err
			}
			e := stats.AbsError(om.L1MissRate(), pm.L1MissRate())
			accs = append(accs, 100-e)
			if err := out.proxy.value("fig8", "err", e); err != nil {
				return out, err
			}
			if err := out.orig.value("fig8", "orig_reqs", om.Requests); err != nil {
				return out, err
			}
			if err := out.proxy.value("fig8", "prox_reqs", pm.Requests); err != nil {
				return out, err
			}
		}
	}
	out.setFig8(accs)
	return out, nil
}

// table1Rows builds a benchmark's Table 1 rows from its profile as
// eval.Table1 does: the three dominant instructions with their stride
// modes, and the profile's reuse class.
func table1Rows(name string, p *gmap.Profile) []eval.Table1Row {
	class := reuseClass(p)
	dom := p.DominantInsts()
	if len(dom) > 3 {
		dom = dom[:3]
	}
	rows := make([]eval.Table1Row, 0, len(dom))
	for _, i := range dom {
		inst := p.Insts[i]
		row := eval.Table1Row{Benchmark: name, PC: inst.PC, Freq: p.InstFrequency(i), Reuse: class}
		if k, f, ok := inst.InterStride.Mode(); ok {
			row.InterStride, row.InterFreq = k, f
		}
		if k, _, ok := inst.IntraStride.Mode(); ok {
			row.IntraStride = k
		}
		rows = append(rows, row)
	}
	return rows
}

// reuseClass is Table 1's temporal-locality class of a profile: the share
// of non-cold reuses, <30% low, 30-70% med, >70% high.
func reuseClass(p *gmap.Profile) string {
	var total, cold uint64
	for _, pp := range p.Profiles {
		total += pp.Reuse.Total()
		cold += pp.Reuse.Count(reuse.Cold)
	}
	if total == 0 {
		return "n/a"
	}
	switch frac := 1 - float64(cold)/float64(total); {
	case frac > 0.7:
		return "high"
	case frac >= 0.3:
		return "med"
	default:
		return "low"
	}
}

// largeScale is the large-kernel workload's input size: 8x the size the
// clone pipeline was tuned on, so its accuracy is measured on held-out
// inputs.
const largeScale = 8

func (o opts) largeBenchmarks() []string {
	if o.benchmarks != nil {
		return o.benchmarks
	}
	return []string{"bfs", "hotspot", "blk", "mum", "srad", "kmeans"}
}

// setupLarge is the large-kernel set-up: the chain up to the read-back
// clone for every kernel. The timed pass makes the same calls under the
// same names, so the set-up passes also time the chain for wall_s.
func setupLarge(o opts, sw *stopwatch) ([]*profiler.Profile, int, error) {
	p := &probe{}
	var ps []*profiler.Profile
	for _, name := range o.largeBenchmarks() {
		var c *clone
		err := sw.time("chain/"+name, func() (err error) {
			c, err = p.build(name, largeScale, o.seed, scaleFactor)
			return err
		})
		if err != nil {
			return ps, p.ops, err
		}
		ps = append(ps, c.prof)
	}
	return ps, p.ops, nil
}

// runLarge is the large-kernel workload: the file-based chain through the
// root gmap API on each kernel, then the original and the clone simulated
// on the Table 2 system, one call at a time on one goroutine. The
// untraced and the traced run both use it, so the difference of their
// wall times is the tracing overhead. sw times each kernel's chain and
// its simulations as two calls.
func runLarge(o opts, p *probe, sw *stopwatch) (*outcome, error) {
	out := &outcome{}
	defer p.settle(out)
	cfg := gmap.DefaultSimConfig()
	var l1, l2 []float64
	for _, name := range o.largeBenchmarks() {
		var c *clone
		var om, pm gmap.Metrics
		err := sw.time("chain/"+name, func() (err error) {
			c, err = p.build(name, largeScale, o.seed, scaleFactor)
			return err
		})
		if err != nil {
			return out, err
		}
		err = sw.time("simulate/"+name, func() (err error) {
			warps := p.coalesce(c.tr, uint64(cfg.L1.LineSize))
			c.tr = nil
			if om, err = p.simulate("orig", warps, cfg); err != nil {
				return err
			}
			pm, err = p.simulate("proxy", c.proxy.Warps, cfg)
			return err
		})
		if err != nil {
			return out, err
		}
		out.profiles = append(out.profiles, c.prof)
		if err := out.orig.value("large", name, om); err != nil {
			return out, err
		}
		if err := out.proxy.value("large", name, pm); err != nil {
			return out, err
		}
		l1 = append(l1, stats.AbsError(om.L1MissRate(), pm.L1MissRate()))
		l2 = append(l2, stats.AbsError(om.L2MissRate(), pm.L2MissRate()))
	}
	e1, e2 := stats.Mean(l1), stats.Mean(l2)
	out.errPP = (e1 + e2) / 2
	out.details = []detail{{"large_l1_err_pp", "pp", e1}, {"large_l2_err_pp", "pp", e2}}
	return out, nil
}
