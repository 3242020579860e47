// Command gmap-sim runs a memory trace — an original per-thread trace, a
// generated proxy, or a built-in benchmark — through the SIMT-aware
// multi-core cache and DRAM hierarchy and reports the performance metrics
// the paper validates proxies on.
//
// Usage:
//
//	gmap-sim -workload kmeans
//	gmap-sim -proxy kmeans.proxy.wtrc -l1-size 32768 -l1-ways 8
//	gmap-sim -in app.trc -scheduler gto -l1-prefetch
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/uteda/gmap"
	"github.com/uteda/gmap/internal/cache"
	"github.com/uteda/gmap/internal/dram"
	"github.com/uteda/gmap/internal/prefetch"
)

func main() {
	var (
		workload = flag.String("workload", "", "built-in benchmark to simulate")
		scale    = flag.Int("scale", 1, "workload scale for -workload")
		in       = flag.String("in", "", "per-thread trace file (gmap binary format)")
		proxyIn  = flag.String("proxy", "", "proxy warp-trace file")

		cores    = flag.Int("cores", 15, "number of SMs")
		l1Size   = flag.Int("l1-size", 16*1024, "L1 size in bytes")
		l1Ways   = flag.Int("l1-ways", 4, "L1 associativity")
		l1Line   = flag.Int("l1-line", 128, "L1 line size")
		l2Size   = flag.Int("l2-size", 1<<20, "L2 size in bytes")
		l2Ways   = flag.Int("l2-ways", 8, "L2 associativity")
		l2Line   = flag.Int("l2-line", 128, "L2 line size")
		l2Banks  = flag.Int("l2-banks", 8, "L2 bank count")
		mshrs    = flag.Int("mshrs", 64, "MSHRs per core (0 = unbounded)")
		l1wt     = flag.Bool("l1-write-through", false, "write-through/no-allocate L1 (Fermi global-store policy)")
		sched    = flag.String("scheduler", "lrr", "warp scheduler: lrr, gto or pself")
		pself    = flag.Float64("pself", 0.9, "SchedPself repeat probability (pself scheduler)")
		seed     = flag.Uint64("seed", 1, "simulation seed")
		l1pf     = flag.Bool("l1-prefetch", false, "enable the L1 stride prefetcher")
		l1pfDeg  = flag.Int("l1-prefetch-degree", 2, "L1 prefetch degree")
		l2pf     = flag.Bool("l2-prefetch", false, "enable the L2 stream prefetcher")
		l2pfWin  = flag.Int("l2-prefetch-window", 16, "L2 stream window (lines)")
		l2pfDeg  = flag.Int("l2-prefetch-degree", 2, "L2 prefetch degree")
		channels = flag.Int("dram-channels", 8, "DRAM channels")
		busBytes = flag.Int("dram-bus", 8, "DRAM bus width in bytes")
		mapping  = flag.String("dram-mapping", "RoBaRaCoCh", "DRAM address mapping: RoBaRaCoCh or ChRaBaRoCo")
		obsOut   = flag.String("obs-out", "", "stream cycle-sampled observability series to this JSONL file (- for stdout)")
		obsSnap  = flag.String("obs-snapshot", "", "dump the full observability registry as JSON to this file (- for stdout)")
		serveA   = flag.String("serve", "", "serve live observability over HTTP on this address (/metrics, /trace, /debug/pprof)")
		traceOut = flag.String("trace-out", "", "export the span trace: Chrome trace-event JSON (Perfetto), or JSONL if the path ends in .jsonl (- for stdout)")
	)
	flag.Parse()

	cfg := gmap.DefaultSimConfig()
	cfg.NumCores = *cores
	cfg.L1 = cache.Config{SizeBytes: *l1Size, Ways: *l1Ways, LineSize: *l1Line}
	if *l1wt {
		cfg.L1.Writes = cache.WriteThroughNoAllocate
	}
	cfg.L2 = cache.Config{SizeBytes: *l2Size, Ways: *l2Ways, LineSize: *l2Line}
	cfg.L2Banks = *l2Banks
	cfg.MSHRsPerCore = *mshrs
	cfg.Seed = *seed
	cfg.SchedPself = *pself
	switch *sched {
	case "lrr":
		cfg.Scheduler = gmap.LRR
	case "gto":
		cfg.Scheduler = gmap.GTO
	case "pself":
		cfg.Scheduler = gmap.PSelf
	default:
		fatal(fmt.Errorf("unknown scheduler %q", *sched))
	}
	cfg.DRAM.Channels = *channels
	cfg.DRAM.BusBytes = *busBytes
	switch *mapping {
	case "RoBaRaCoCh":
		cfg.DRAM.Mapping = dram.RoBaRaCoCh
	case "ChRaBaRoCo":
		cfg.DRAM.Mapping = dram.ChRaBaRoCo
	default:
		fatal(fmt.Errorf("unknown DRAM mapping %q", *mapping))
	}
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	var err error
	cfg.L1Prefetch, cfg.L2Prefetch, err = prefetchConfigs(*l1pf, *l1pfDeg, *l2pf, *l2pfWin, *l2pfDeg, *l2Line, set)
	if err != nil {
		fatal(err)
	}

	if *obsOut != "" || *obsSnap != "" || *serveA != "" {
		cfg.Obs = gmap.NewObsRegistry()
	}
	var tracer *gmap.Tracer
	var root *gmap.TraceSpan
	if *traceOut != "" || *serveA != "" {
		tracer = gmap.NewTracer()
		root = tracer.Root("gmap-sim")
		cfg.TraceSpan = root
	}
	if *serveA != "" {
		srv, err := gmap.StartObsServer(context.Background(), gmap.ServeOptions{Addr: *serveA, Registry: cfg.Obs, Tracer: tracer})
		if err != nil {
			fatal(err)
		}
		defer srv.Shutdown()
		fmt.Fprintf(os.Stderr, "gmap-sim: serving observability on http://%s\n", srv.Addr())
	}

	metrics, name, err := run(*workload, *scale, *in, *proxyIn, cfg)
	root.End()
	if err != nil {
		fatal(err)
	}
	if *obsOut != "" {
		if err := writeObs(*obsOut, cfg.Obs.WriteSeriesJSONL); err != nil {
			fatal(err)
		}
	}
	if *obsSnap != "" {
		if err := writeObs(*obsSnap, cfg.Obs.WriteJSON); err != nil {
			fatal(err)
		}
	}
	if *traceOut != "" {
		export := tracer.WriteChrome
		if strings.HasSuffix(*traceOut, ".jsonl") {
			export = tracer.WriteJSONL
		}
		if err := writeObs(*traceOut, export); err != nil {
			fatal(fmt.Errorf("trace export %s: %w", *traceOut, err))
		}
	}
	fmt.Printf("workload:          %s\n", name)
	fmt.Printf("requests:          %d\n", metrics.Requests)
	fmt.Printf("cycles:            %d\n", metrics.Cycles)
	fmt.Printf("L1 miss rate:      %.4f (%d/%d)\n", metrics.L1MissRate(), metrics.L1.Misses, metrics.L1.Accesses)
	fmt.Printf("L2 miss rate:      %.4f (%d/%d)\n", metrics.L2MissRate(), metrics.L2.Misses, metrics.L2.Accesses)
	if metrics.L1.PrefetchFills > 0 {
		fmt.Printf("L1 pf accuracy:    %.4f (%d/%d)\n", metrics.L1.PrefetchAccuracy(), metrics.L1.PrefetchUseful, metrics.L1.PrefetchFills)
	}
	if metrics.L2.PrefetchFills > 0 {
		fmt.Printf("L2 pf accuracy:    %.4f (%d/%d)\n", metrics.L2.PrefetchAccuracy(), metrics.L2.PrefetchUseful, metrics.L2.PrefetchFills)
	}
	fmt.Printf("MSHR stalls:       %d\n", metrics.MSHRStalls)
	fmt.Printf("DRAM RBL:          %.4f\n", metrics.DRAM.RowBufferLocality())
	fmt.Printf("DRAM avg queue:    %.2f\n", metrics.DRAM.AvgQueueLen())
	fmt.Printf("DRAM read latency: %.1f cycles\n", metrics.DRAM.AvgReadLatency())
	fmt.Printf("DRAM write latency:%.1f cycles\n", metrics.DRAM.AvgWriteLatency())
}

// prefetchConfigs describes the prefetchers the flags turn on, leaving
// the zero value for one that is off, and validates them, so a bad
// prefetch flag fails before any trace is read or emulated. set holds the
// flags given on the command line: a prefetcher's tuning flag given
// without its switch is an error, since the run would ignore it.
func prefetchConfigs(l1 bool, l1Degree int, l2 bool, l2Window, l2Degree, l2Line int, set map[string]bool) (prefetch.StrideConfig, prefetch.StreamConfig, error) {
	var stride prefetch.StrideConfig
	var stream prefetch.StreamConfig
	on := map[string]bool{"l1-prefetch": l1, "l2-prefetch": l2}
	for _, name := range []string{"l1-prefetch-degree", "l2-prefetch-window", "l2-prefetch-degree"} {
		if sw := name[:len("lN-prefetch")]; set[name] && !on[sw] {
			return stride, stream, fmt.Errorf("-%s needs -%s", name, sw)
		}
	}
	if l1 {
		stride = prefetch.DefaultStrideConfig()
		stride.Degree = l1Degree
		if err := stride.Validate(); err != nil {
			return stride, stream, err
		}
	}
	if l2 {
		stream = prefetch.DefaultStreamConfig()
		stream.Window, stream.Degree, stream.LineSize = l2Window, l2Degree, uint64(l2Line)
		if err := stream.Validate(); err != nil {
			return stride, stream, err
		}
	}
	return stride, stream, nil
}

func run(workload string, scale int, in, proxyIn string, cfg gmap.SimConfig) (gmap.Metrics, string, error) {
	n := 0
	for _, s := range []string{workload, in, proxyIn} {
		if s != "" {
			n++
		}
	}
	if n != 1 {
		return gmap.Metrics{}, "", fmt.Errorf("exactly one of -workload, -in, -proxy is required")
	}
	switch {
	case workload != "":
		tr, err := gmap.BenchmarkTrace(workload, scale)
		if err != nil {
			return gmap.Metrics{}, "", err
		}
		m, err := gmap.SimulateTrace(tr, cfg)
		return m, tr.Name, err
	case in != "":
		f, err := os.Open(in)
		if err != nil {
			return gmap.Metrics{}, "", err
		}
		defer f.Close()
		tr, err := gmap.ReadTrace(f)
		if err != nil {
			return gmap.Metrics{}, "", fmt.Errorf("%s: %w", in, err)
		}
		m, err := gmap.SimulateTrace(tr, cfg)
		return m, tr.Name, err
	default:
		f, err := os.Open(proxyIn)
		if err != nil {
			return gmap.Metrics{}, "", err
		}
		defer f.Close()
		proxy, err := gmap.ReadProxy(f)
		if err != nil {
			return gmap.Metrics{}, "", fmt.Errorf("%s: %w", proxyIn, err)
		}
		m, err := gmap.SimulateProxy(proxy, cfg)
		return m, proxy.Name + " (proxy)", err
	}
}

// writeObs streams one observability export (JSONL series or a JSON
// snapshot) to path, with "-" selecting stdout.
func writeObs(path string, export func(io.Writer) error) error {
	if path == "-" {
		return export(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := export(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gmap-sim:", err)
	os.Exit(1)
}
