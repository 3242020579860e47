// Command gmap-trace emits and inspects G-MAP memory traces.
//
// It can materialize a built-in benchmark's per-thread trace to a file
// (binary or text), convert between the two formats, and summarize the
// structural properties — footprint, per-warp working set, reuse fraction,
// dominant instructions — of a trace or a generated proxy.
//
// Usage:
//
//	gmap-trace -workload srad -out srad.trc
//	gmap-trace -workload srad -format text -out srad.txt
//	gmap-trace -summary srad.trc
//	gmap-trace -summary-proxy srad.proxy.wtrc
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/uteda/gmap"
	"github.com/uteda/gmap/internal/trace"
)

func main() {
	var (
		workload     = flag.String("workload", "", "built-in benchmark to emit")
		scale        = flag.Int("scale", 1, "workload scale")
		format       = flag.String("format", "binary", "output format: binary or text")
		out          = flag.String("out", "", "output path (default stdout)")
		summary      = flag.String("summary", "", "summarize a per-thread trace file")
		summaryProxy = flag.String("summary-proxy", "", "summarize a proxy warp-trace file")
		lineSize     = flag.Uint64("line-size", 128, "line size for summaries and coalescing")
	)
	flag.Parse()
	if *lineSize == 0 || *lineSize&(*lineSize-1) != 0 {
		fatal(fmt.Errorf("-line-size %d is not a power of two", *lineSize))
	}

	switch {
	case *summary != "":
		f, err := os.Open(*summary)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		tr, err := gmap.ReadTrace(f)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", *summary, err))
		}
		warps := gmap.Coalesce(tr, *lineSize)
		printSummary(tr.Name, trace.Summarize(warps, *lineSize))
	case *summaryProxy != "":
		f, err := os.Open(*summaryProxy)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		proxy, err := gmap.ReadProxy(f)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", *summaryProxy, err))
		}
		printSummary(proxy.Name+" (proxy)", trace.Summarize(proxy.Warps, *lineSize))
	case *workload != "":
		tr, err := gmap.BenchmarkTrace(*workload, *scale)
		if err != nil {
			fatal(err)
		}
		w := os.Stdout
		if *out != "" {
			of, err := os.Create(*out)
			if err != nil {
				fatal(err)
			}
			defer of.Close()
			w = of
		}
		if *format == "text" {
			err = trace.WriteText(w, tr)
		} else {
			err = gmap.WriteTrace(w, tr)
		}
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s: %d threads, %d accesses\n",
			tr.Name, tr.NumThreads(), tr.NumAccesses())
	default:
		fatal(fmt.Errorf("one of -workload, -summary, -summary-proxy is required"))
	}
}

func printSummary(name string, s trace.Summary) {
	fmt.Printf("%s: %s\n", name, s)
	fmt.Printf("dominant instructions:\n")
	dom := s.DominantPCs()
	if len(dom) > 8 {
		dom = dom[:8]
	}
	for _, pc := range dom {
		fmt.Printf("  pc %#-8x %8d requests (%.1f%%)\n",
			pc, s.PCs[pc], 100*float64(s.PCs[pc])/float64(s.Requests))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gmap-trace:", err)
	os.Exit(1)
}
