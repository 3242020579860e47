// Command gmap-profile extracts a G-MAP statistical profile from a GPU
// memory trace. The input is either a built-in synthetic benchmark
// (-workload) or a trace file (-in) in the gmap binary or text format;
// the output is the profile as JSON.
//
// Usage:
//
//	gmap-profile -workload kmeans -out kmeans.profile.json
//	gmap-profile -in app.trc -format binary -out app.profile.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/uteda/gmap"
	"github.com/uteda/gmap/internal/obs"
	"github.com/uteda/gmap/internal/trace"
)

func main() {
	var (
		workload  = flag.String("workload", "", "built-in benchmark to profile (one of: "+strings.Join(gmap.Benchmarks(), ", ")+")")
		scale     = flag.Int("scale", 1, "workload scale for -workload (1 = default evaluation size)")
		in        = flag.String("in", "", "trace file to profile (alternative to -workload)")
		format    = flag.String("format", "binary", "trace file format: binary or text")
		out       = flag.String("out", "", "output profile path (default stdout)")
		lineSize  = flag.Uint64("line-size", 128, "coalescing line size in bytes")
		threshold = flag.Float64("cluster-threshold", 0.9, "π-profile similarity threshold Th")
		maxM      = flag.Int("max-profiles", 8, "maximum dominant π profiles kept (M)")
		obsSnap   = flag.String("obs-snapshot", "", "dump the observability registry (profiling phase timings, coalescer histograms) as JSON to this file (- for stdout)")
	)
	flag.Parse()

	tr, err := loadTrace(*workload, *scale, *in, *format)
	if err != nil {
		fatal(err)
	}
	cfg := gmap.DefaultProfileConfig()
	cfg.LineSize = *lineSize
	cfg.ClusterThreshold = *threshold
	cfg.MaxProfiles = *maxM
	if *obsSnap != "" {
		cfg.Obs = gmap.NewObsRegistry()
	}
	profile, err := gmap.ProfileTrace(tr, cfg)
	if err != nil {
		fatal(err)
	}
	if *obsSnap != "" {
		if err := obs.WriteFile(*obsSnap, cfg.Obs.WriteJSON); err != nil {
			fatal(fmt.Errorf("obs snapshot: %w", err))
		}
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := gmap.WriteProfile(w, profile); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "profiled %s: %d threads, %d requests, %d instructions, %d π profiles\n",
		tr.Name, tr.NumThreads(), profile.TotalRequests, len(profile.Insts), len(profile.Profiles))
}

func loadTrace(workload string, scale int, in, format string) (*gmap.KernelTrace, error) {
	switch {
	case workload != "" && in != "":
		return nil, fmt.Errorf("use either -workload or -in, not both")
	case workload != "":
		return gmap.BenchmarkTrace(workload, scale)
	case in != "":
		f, err := os.Open(in)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		var tr *gmap.KernelTrace
		if format == "text" {
			tr, err = trace.ReadText(f)
		} else {
			tr, err = gmap.ReadTrace(f)
		}
		if err != nil {
			// FormatError positions (byte offset / line) surface here with
			// the file they refer to.
			return nil, fmt.Errorf("%s: %w", in, err)
		}
		return tr, nil
	default:
		return nil, fmt.Errorf("one of -workload or -in is required")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gmap-profile:", err)
	os.Exit(1)
}
