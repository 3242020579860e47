// Property test: observability is write-only. Attaching a registry to
// the simulator must never change any simulation outcome — the metrics
// are required to be bit-identical with observability on and off, over
// randomized multi-core, multi-warp, MSHR-bounded workloads.
package memsim_test

import (
	"reflect"
	"strings"
	"testing"

	"github.com/uteda/gmap/internal/dram"
	"github.com/uteda/gmap/internal/memsim"
	"github.com/uteda/gmap/internal/obs"
	obstrace "github.com/uteda/gmap/internal/obs/trace"
	"github.com/uteda/gmap/internal/proptest"
	"github.com/uteda/gmap/internal/trace"
)

// runOnce builds and runs one simulator over warps; obs toggles the
// attached registry. The registry is returned for instrumentation checks.
func runOnce(t *testing.T, seed uint64, warps []trace.WarpTrace, cfg memsim.Config, withObs bool) (memsim.Metrics, *obs.Registry) {
	t.Helper()
	var r *obs.Registry
	if withObs {
		r = obs.New()
	}
	cfg.Obs = r
	sim, err := memsim.New(warps, cfg)
	if err != nil {
		t.Fatalf("seed %d (obs=%v): %v", seed, withObs, err)
	}
	m, err := sim.Run()
	if err != nil {
		t.Fatalf("seed %d (obs=%v): %v", seed, withObs, err)
	}
	return m, r
}

// TestObsInvariance runs randomized workloads twice — observability
// disabled and enabled — and requires reflect.DeepEqual metrics,
// including the per-launch breakdown. Any divergence means an
// instrumentation hook leaked into simulation state.
func TestObsInvariance(t *testing.T) {
	n := proptest.N(t, 150, 1000)
	for i := 0; i < n; i++ {
		seed := uint64(0x0b5 + i)
		g := proptest.New(seed)
		l1cfg := g.CacheConfig()
		l2cfg := g.CacheConfig()
		banks := []int{1, 2, 4}[g.R.Intn(3)]
		for l2cfg.SizeBytes/(l2cfg.Ways*l2cfg.LineSize) < banks {
			banks /= 2
		}
		warps := g.WarpSet(8, 0.05)
		cfg := memsim.Config{
			NumCores:     1 + g.R.Intn(4),
			L1:           l1cfg,
			L2:           l2cfg,
			L2Banks:      banks,
			MSHRsPerCore: []int{0, 1, 4, 64}[g.R.Intn(4)],
			DRAM:         dram.DefaultGDDR3(),
			Scheduler:    []memsim.SchedPolicy{memsim.LRR, memsim.GTO}[g.R.Intn(2)],
			Seed:         g.R.Uint64(),
		}

		plain, _ := runOnce(t, seed, warps, cfg, false)
		observed, reg := runOnce(t, seed, warps, cfg, true)
		if !reflect.DeepEqual(plain, observed) {
			t.Fatalf("seed %d: metrics diverge with observability attached\n plain:    %+v\n observed: %+v", seed, plain, observed)
		}

		// The instrumentation itself must agree with the metrics it
		// shadows: the request counter is the same stream.
		if got := reg.Counter("memsim.requests").Value(); got != plain.Requests {
			t.Fatalf("seed %d: obs requests %d != metrics requests %d", seed, got, plain.Requests)
		}
	}
}

// TestObsCountersMatchStats: the counters the simulator publishes are
// its own statistics, not a second count of the same events. Over
// TestSimGolden's cases each counter equals the Metrics field it
// publishes, the L2's per-bank counters summed over the banks.
func TestObsCountersMatchStats(t *testing.T) {
	n := min(proptest.N(t, simGoldenShort, simGoldenCases), simGoldenCases)
	for i := 0; i < n; i++ {
		seed := memsim.GoldenSeed(i)
		launches, cfg := memsim.GoldenCase(seed)
		reg := obs.New()
		cfg.Obs = reg
		sim, err := memsim.NewSequence(launches, cfg)
		if err != nil {
			t.Fatalf("seed %#x: %v", seed, err)
		}
		m, err := sim.Run()
		if err != nil {
			t.Fatalf("seed %#x: %v", seed, err)
		}
		c := reg.Snapshot().Counters
		l2 := map[string]uint64{}
		for name, v := range c {
			if strings.HasPrefix(name, "l2.bank") {
				l2[name[strings.LastIndexByte(name, '.')+1:]] += v
			}
		}
		for _, ck := range []struct {
			name      string
			got, want uint64
		}{
			{"dram.reads", c["dram.reads"], m.DRAM.Reads},
			{"dram.writes", c["dram.writes"], m.DRAM.Writes},
			{"dram.row_hits", c["dram.row_hits"], m.DRAM.RowHits},
			{"dram.row_misses", c["dram.row_misses"], m.DRAM.RowMisses},
			{"dram.row_conflicts", c["dram.row_conflicts"], m.DRAM.RowConflicts},
			{"dram.refreshes", c["dram.refreshes"], m.DRAM.Refreshes},
			{"l2.bank*.accesses", l2["accesses"], m.L2.Accesses},
			{"l2.bank*.misses", l2["misses"], m.L2.Misses},
			{"l2.bank*.writebacks", l2["writebacks"], m.L2.Writebacks},
			{"memsim.requests", c["memsim.requests"], m.Requests},
			{"memsim.sched.stall_mshr", c["memsim.sched.stall_mshr"], m.MSHRStalls},
			{"memsim.launches", c["memsim.launches"], uint64(len(m.PerLaunch))},
		} {
			if ck.got != ck.want {
				t.Fatalf("case %d (seed %#x): %s = %d, want %d", i, seed, ck.name, ck.got, ck.want)
			}
		}
	}
}

// TestObsInvarianceSequence covers the multi-launch path (per-launch
// windows and launch samplers) with two back-to-back kernel launches.
func TestObsInvarianceSequence(t *testing.T) {
	n := proptest.N(t, 50, 300)
	for i := 0; i < n; i++ {
		seed := 0x5e90 ^ uint64(i*2654435761)
		g := proptest.New(seed)
		launches := [][]trace.WarpTrace{
			g.WarpSet(4, 0.05),
			g.WarpSet(4, 0.05),
		}
		cfg := memsim.Config{
			NumCores: 1 + g.R.Intn(2),
			L1:       g.CacheConfig(),
			L2:       g.CacheConfig(),
			L2Banks:  1,
			DRAM:     dram.DefaultGDDR3(),
		}

		run := func(withObs bool) (memsim.Metrics, *obs.Registry) {
			var r *obs.Registry
			if withObs {
				r = obs.New()
			}
			c := cfg
			c.Obs = r
			sim, err := memsim.NewSequence(launches, c)
			if err != nil {
				t.Fatalf("seed %d (obs=%v): %v", seed, withObs, err)
			}
			m, err := sim.Run()
			if err != nil {
				t.Fatalf("seed %d (obs=%v): %v", seed, withObs, err)
			}
			return m, r
		}
		plain, _ := run(false)
		observed, reg := run(true)
		if !reflect.DeepEqual(plain, observed) {
			t.Fatalf("seed %d: sequence metrics diverge with observability attached", seed)
		}
		if got, want := reg.Counter("memsim.launches").Value(), uint64(len(plain.PerLaunch)); got != want {
			t.Fatalf("seed %d: obs launches %d != recorded launches %d", seed, got, want)
		}
	}
}

// TestTraceInvariance extends the write-only property to span tracing:
// attaching a trace span to the simulator must leave the metrics
// bit-identical, while still recording the expected span structure
// ("memsim.run", and "memsim.epoch" per launch window on multi-launch
// streams).
func TestTraceInvariance(t *testing.T) {
	n := proptest.N(t, 75, 400)
	for i := 0; i < n; i++ {
		seed := uint64(0x72ace + i)
		g := proptest.New(seed)
		launches := [][]trace.WarpTrace{g.WarpSet(6, 0.05)}
		if g.R.Intn(2) == 1 {
			launches = append(launches, g.WarpSet(4, 0.05))
		}
		cfg := memsim.Config{
			NumCores: 1 + g.R.Intn(3),
			L1:       g.CacheConfig(),
			L2:       g.CacheConfig(),
			L2Banks:  1,
			DRAM:     dram.DefaultGDDR3(),
			Seed:     g.R.Uint64(),
		}

		run := func(span *obstrace.Span) memsim.Metrics {
			c := cfg
			c.TraceSpan = span
			sim, err := memsim.NewSequence(launches, c)
			if err != nil {
				t.Fatalf("seed %d (traced=%v): %v", seed, span != nil, err)
			}
			m, err := sim.Run()
			if err != nil {
				t.Fatalf("seed %d (traced=%v): %v", seed, span != nil, err)
			}
			return m
		}

		plain := run(nil)
		tr := obstrace.New()
		root := tr.Root("test")
		traced := run(root)
		root.End()
		if !reflect.DeepEqual(plain, traced) {
			t.Fatalf("seed %d: metrics diverge with span tracing attached\n plain:  %+v\n traced: %+v", seed, plain, traced)
		}

		var runs, epochs int
		for _, e := range tr.Events() {
			switch e.Name {
			case "memsim.run":
				runs++
			case "memsim.epoch":
				epochs++
			}
		}
		if runs != 1 {
			t.Fatalf("seed %d: want 1 memsim.run span, got %d", seed, runs)
		}
		wantEpochs := 0
		if len(launches) > 1 {
			wantEpochs = len(launches)
		}
		if epochs != wantEpochs {
			t.Fatalf("seed %d: want %d memsim.epoch spans for %d launches, got %d", seed, wantEpochs, len(launches), epochs)
		}
	}
}
