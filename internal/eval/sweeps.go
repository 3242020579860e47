// Package eval defines and runs the paper's evaluation: the configuration
// sweeps behind every figure and table of §5, original-versus-proxy
// comparison across them, and plain-text report rendering. Each experiment
// is addressable by its paper id (table1, fig6a..fig6e, fig7, fig8).
package eval

import (
	"fmt"

	"github.com/uteda/gmap/internal/cache"
	"github.com/uteda/gmap/internal/dram"
	"github.com/uteda/gmap/internal/memsim"
	"github.com/uteda/gmap/internal/prefetch"
)

// ConfigGen is one labelled sweep point. Make returns the point's
// simulator configuration, the same value on every call: a memsim.Config
// is a plain value from which every run builds its own prefetchers. The
// {Label, Make} shape stays because bench/ builds and calls it.
type ConfigGen struct {
	Label string
	Make  func() (memsim.Config, error)
}

// configGen labels a configuration built once.
func configGen(label string, cfg memsim.Config) ConfigGen {
	return ConfigGen{Label: label, Make: func() (memsim.Config, error) { return cfg, nil }}
}

// baseConfig returns the Table 2 system with the evaluation's core count.
func baseConfig(cores int) memsim.Config {
	cfg := memsim.DefaultConfig()
	if cores > 0 {
		cfg.NumCores = cores
	}
	return cfg
}

// L1Sweep returns the 30 L1 configurations of Figure 6a: cache size
// 8-128KB x associativity 1-16 x line size 32-128B, with the L2 fixed at
// 1MB 8-way.
func L1Sweep(cores int) []ConfigGen {
	return l1Sweep(baseConfig(cores), "")
}

// l1Sweep varies base's L1 over Figure 6a's 30 geometries, appending
// suffix to every label.
func l1Sweep(base memsim.Config, suffix string) []ConfigGen {
	var gens []ConfigGen
	for _, size := range []int{8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10} {
		for _, ways := range []int{1, 4, 16} {
			for _, line := range []int{32, 128} {
				cfg := base
				cfg.L1 = cache.Config{SizeBytes: size, Ways: ways, LineSize: line}
				gens = append(gens, configGen("L1 "+cfg.L1.String()+suffix, cfg))
			}
		}
	}
	return gens
}

// L2Sweep returns the 30 L2 configurations of Figure 6b: 128KB-4MB x
// associativity 1-16 x line 64-128B, with the L1 fixed at 16KB 4-way.
func L2Sweep(cores int) []ConfigGen {
	var gens []ConfigGen
	for _, size := range []int{128 << 10, 512 << 10, 1 << 20, 2 << 20, 4 << 20} {
		for _, ways := range []int{1, 4, 16} {
			for _, line := range []int{64, 128} {
				cfg := baseConfig(cores)
				cfg.L2 = cache.Config{SizeBytes: size, Ways: ways, LineSize: line}
				gens = append(gens, configGen("L2 "+cfg.L2.String(), cfg))
			}
		}
	}
	return gens
}

// L1PrefetchSweep returns the 72 configurations of Figure 6c: the
// many-thread-aware L1 stride prefetcher swept over degree and table
// configuration, across L1 geometries.
func L1PrefetchSweep(cores int) []ConfigGen {
	var gens []ConfigGen
	for _, size := range []int{8 << 10, 16 << 10, 64 << 10} {
		for _, ways := range []int{1, 4, 16} {
			for _, degree := range []int{1, 2, 4, 8} {
				for _, table := range []int{16, 64} {
					cfg := baseConfig(cores)
					cfg.L1 = cache.Config{SizeBytes: size, Ways: ways, LineSize: 128}
					cfg.L1Prefetch = prefetch.StrideConfig{TableSize: table, Degree: degree, MinConfidence: 2, PerWarp: true}
					gens = append(gens, configGen(fmt.Sprintf("L1 %s stride(d=%d,t=%d)", cfg.L1.String(), degree, table), cfg))
				}
			}
		}
	}
	return gens
}

// L2PrefetchSweep returns the 96 configurations of Figure 6d: an L2
// stream prefetcher with window 8/16/32 and degree 1/2/4/8, across L2
// geometries.
func L2PrefetchSweep(cores int) []ConfigGen {
	var gens []ConfigGen
	for _, size := range []int{512 << 10, 2 << 20} {
		for _, ways := range []int{4, 16} {
			for _, line := range []int{64, 128} {
				for _, window := range []int{8, 16, 32} {
					for _, degree := range []int{1, 2, 4, 8} {
						cfg := baseConfig(cores)
						cfg.L2 = cache.Config{SizeBytes: size, Ways: ways, LineSize: line}
						cfg.L2Prefetch = prefetch.StreamConfig{Streams: 16, Window: window, Degree: degree, LineSize: uint64(line)}
						gens = append(gens, configGen(fmt.Sprintf("L2 %s stream(w=%d,d=%d)", cfg.L2.String(), window, degree), cfg))
					}
				}
			}
		}
	}
	return gens
}

// SchedulerSweep returns Figure 6e's configurations: the L1 sweep under a
// given warp scheduling policy.
func SchedulerSweep(cores int, policy memsim.SchedPolicy) []ConfigGen {
	base := baseConfig(cores)
	base.Scheduler = policy
	if policy == memsim.GTO || policy == memsim.PSelf {
		// GTO re-issues the same warp with high probability; PSelf is
		// the proxy-side approximation of it (§4.5).
		base.SchedPself = 0.9
	}
	return l1Sweep(base, " "+policy.String())
}

// DRAMSweep returns the 11 GDDR5 configurations of Figure 7: channel
// parallelism, bus width and the two addressing schemes.
func DRAMSweep(cores int) []ConfigGen {
	type point struct {
		channels, bus int
		mapping       dram.AddrMapping
	}
	points := []point{
		{4, 8, dram.RoBaRaCoCh},
		{8, 8, dram.RoBaRaCoCh},
		{16, 8, dram.RoBaRaCoCh},
		{4, 8, dram.ChRaBaRoCo},
		{8, 8, dram.ChRaBaRoCo},
		{16, 8, dram.ChRaBaRoCo},
		{8, 4, dram.RoBaRaCoCh},
		{8, 16, dram.RoBaRaCoCh},
		{8, 4, dram.ChRaBaRoCo},
		{8, 16, dram.ChRaBaRoCo},
		{16, 16, dram.RoBaRaCoCh},
	}
	gens := make([]ConfigGen, len(points))
	for i, pt := range points {
		cfg := baseConfig(cores)
		cfg.DRAM = dram.GDDR5(pt.channels, pt.bus, pt.mapping)
		gens[i] = configGen(fmt.Sprintf("GDDR5 %dch %dB %s", pt.channels, pt.bus, pt.mapping), cfg)
	}
	return gens
}
