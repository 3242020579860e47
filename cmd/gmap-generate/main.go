// Command gmap-generate expands a G-MAP statistical profile into a
// miniaturized proxy (clone) trace, optionally obfuscating the address
// space for proprietary-workload sharing.
//
// Usage:
//
//	gmap-generate -profile app.profile.json -out app.proxy.wtrc -scale-factor 4
//	gmap-generate -profile app.profile.json -obfuscate -key 0xdeadbeef -out clone.wtrc
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/uteda/gmap"
	"github.com/uteda/gmap/internal/obs"
)

func main() {
	var (
		profilePath = flag.String("profile", "", "input profile JSON (required)")
		out         = flag.String("out", "", "output proxy warp-trace path (default stdout)")
		seed        = flag.Uint64("seed", 1, "generation seed")
		scaleFactor = flag.Float64("scale-factor", 4, "miniaturization factor (1 = full size; values in (0,1) scale the workload up)")
		obfuscate   = flag.Bool("obfuscate", false, "replace base addresses with synthetic ones")
		key         = flag.Uint64("key", 0, "obfuscation key (with -obfuscate)")
		obsSnap     = flag.String("obs-snapshot", "", "dump the observability registry (generation phase timings) as JSON to this file (- for stdout)")
	)
	flag.Parse()
	if *profilePath == "" {
		fatal(fmt.Errorf("-profile is required"))
	}
	f, err := os.Open(*profilePath)
	if err != nil {
		fatal(err)
	}
	profile, err := gmap.ReadProfile(f)
	f.Close()
	if err != nil {
		fatal(fmt.Errorf("%s: %w", *profilePath, err))
	}
	gopts := gmap.GenerateOptions{
		Seed:           *seed,
		ScaleFactor:    *scaleFactor,
		Obfuscate:      *obfuscate,
		ObfuscationKey: *key,
	}
	if *obsSnap != "" {
		gopts.Obs = gmap.NewObsRegistry()
	}
	proxy, err := gmap.Generate(profile, gopts)
	if err != nil {
		fatal(err)
	}
	if *obsSnap != "" {
		if err := obs.WriteFile(*obsSnap, gopts.Obs.WriteJSON); err != nil {
			fatal(fmt.Errorf("obs snapshot: %w", err))
		}
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
	if err := gmap.WriteProxy(w, proxy); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "generated %s proxy: %d warps, %d requests (original: %d requests, %.1fx reduction)\n",
		proxy.Name, len(proxy.Warps), proxy.Requests, profile.TotalRequests,
		float64(profile.TotalRequests)/float64(max(proxy.Requests, 1)))
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gmap-generate:", err)
	os.Exit(1)
}
