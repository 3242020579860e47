// Property tests for the two facts the controller's cheap bookkeeping
// rests on: a channel's completions leave in service order with strictly
// increasing Done (so a FIFO delivers them), and an advance before the
// wake cycle has nothing to do (so how often a caller advances, between
// the cycles it enqueues at, cannot change a completion).
package dram_test

import (
	"testing"

	"github.com/uteda/gmap/internal/dram"
	"github.com/uteda/gmap/internal/eval"
	"github.com/uteda/gmap/internal/proptest"
)

// TestCompletionsLeaveInServiceOrder drives random machines, refresh
// included, through interleaved Enqueue, AdvanceInto, NextCompletion and
// Drain calls. Each channel's completions must come out with strictly
// increasing Done, an advance to now must deliver exactly the completions
// done by now, and what it leaves must all finish later.
func TestCompletionsLeaveInServiceOrder(t *testing.T) {
	for i := 0; i < proptest.N(t, 100, 400); i++ {
		seed := uint64(0x5e7f1f0) + uint64(i)*7919
		g := proptest.New(seed)
		cfg := g.DRAMConfig()
		if g.R.Bool(0.5) {
			cfg.Sched = dram.FRFCFS
		}
		ctl, err := dram.NewController(cfg)
		if err != nil {
			t.Fatalf("seed %#x: %v", seed, err)
		}
		channelOf := map[uint64]int{}
		lastDone := make([]uint64, cfg.Channels)
		delivered := 0
		deliver := func(cs []dram.Completion, now uint64) {
			for _, c := range cs {
				ch := channelOf[c.ID]
				if c.Done <= lastDone[ch] || c.Done > now {
					t.Fatalf("seed %#x: channel %d delivered done %d after done %d, at cycle %d",
						seed, ch, c.Done, lastDone[ch], now)
				}
				lastDone[ch] = c.Done
			}
			delivered += len(cs)
		}
		var buf []dram.Completion
		var now, arrival uint64
		addrs := g.AddrStream(50+g.R.Intn(250), uint64(cfg.TxBytes))
		for id, addr := range addrs {
			arrival = max(arrival, now+g.R.Uint64n(16))
			channelOf[uint64(id)] = cfg.Decompose(addr).Channel
			ctl.Enqueue(addr, g.R.Bool(0.3), arrival, uint64(id))
			switch r := g.R.Intn(20); {
			case r < 12:
				now += g.R.Uint64n(24)
				buf = ctl.AdvanceInto(now, buf[:0])
				deliver(buf, now)
				if next, ok := ctl.NextCompletion(); ok && next <= now {
					t.Fatalf("seed %#x: completion done at %d held back past cycle %d", seed, next, now)
				}
			case r == 12:
				deliver(ctl.Drain(), ^uint64(0))
			}
		}
		deliver(ctl.Drain(), ^uint64(0))
		if delivered != len(addrs) {
			t.Fatalf("seed %#x: %d completions for %d requests", seed, delivered, len(addrs))
		}
	}
}

// TestSparseAdvanceMatchesEveryCycle feeds one enqueue stream to two
// controllers. Requests arrive at sparse random cycles, and the sparse
// controller is advanced only at those cycles, before their enqueues; the
// dense one is advanced at every cycle. The dense controller must deliver
// every completion at exactly its Done cycle, and by each sparse cycle
// both must have delivered the same completions, with the same Done and
// RowHit, and end with the same statistics. The machines are proptest's
// and Fig 7's 11 GDDR5 systems.
func TestSparseAdvanceMatchesEveryCycle(t *testing.T) {
	for i := 0; i < proptest.N(t, 60, 250); i++ {
		seed := uint64(0x5ba25e) + uint64(i)*104729
		g := proptest.New(seed)
		cfg := g.DRAMConfig()
		if g.R.Bool(0.5) {
			cfg.Sched = dram.FRFCFS
		}
		checkSparseAdvance(t, seed, g, cfg, 60)
	}
	// Longer streams here, so each crosses the GDDR5 refresh interval.
	for i, gen := range eval.DRAMSweep(0) {
		mc, err := gen.Make()
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 3; k++ {
			seed := uint64(0xf197) + uint64(i*3+k)*104729
			checkSparseAdvance(t, seed, proptest.New(seed), mc.DRAM, 600)
		}
	}
}

// checkSparseAdvance runs one TestSparseAdvanceMatchesEveryCycle case on
// cfg, drawing the stream, of at least minSteps arrival steps, from g.
func checkSparseAdvance(t *testing.T, seed uint64, g *proptest.G, cfg dram.Config, minSteps int) {
	t.Helper()
	dense, err := dram.NewController(cfg)
	if err != nil {
		t.Fatalf("seed %#x: %v", seed, err)
	}
	sparse, err := dram.NewController(cfg)
	if err != nil {
		t.Fatalf("seed %#x: %v", seed, err)
	}
	pending := map[uint64]dram.Completion{} // dense deliveries the sparse one has not matched
	var buf []dram.Completion
	var cycle, arrival, id uint64 // cycle: the last arrival cycle
	for step := 0; step < minSteps+g.R.Intn(2*minSteps); step++ {
		for next := cycle + 1 + g.R.Uint64n(40); cycle < next; {
			cycle++
			buf = dense.AdvanceInto(cycle, buf[:0])
			for _, c := range buf {
				if c.Done != cycle {
					t.Fatalf("seed %#x: dense controller delivered done %d at cycle %d", seed, c.Done, cycle)
				}
				pending[c.ID] = c
			}
		}
		for _, c := range sparse.AdvanceInto(cycle, buf[:0]) {
			d, ok := pending[c.ID]
			if !ok || d.Done != c.Done || d.RowHit != c.RowHit {
				t.Fatalf("seed %#x: at cycle %d the sparse controller delivered %+v, the dense one %+v (found %v)",
					seed, cycle, c, d, ok)
			}
			delete(pending, c.ID)
		}
		if len(pending) != 0 {
			t.Fatalf("seed %#x: by cycle %d the dense controller delivered %d completions the sparse one did not",
				seed, cycle, len(pending))
		}
		for n := g.R.Intn(4); n > 0; n-- {
			arrival = max(arrival, cycle+g.R.Uint64n(8))
			addr := g.R.Uint64n(1<<22) &^ uint64(cfg.TxBytes-1)
			write := g.R.Bool(0.3)
			dense.Enqueue(addr, write, arrival, id)
			sparse.Enqueue(addr, write, arrival, id)
			id++
		}
	}
	dense.Drain()
	sparse.Drain()
	if cfg.TREFI > 0 && minSteps > 60 && dense.Stats.Refreshes == 0 {
		t.Fatalf("seed %#x: the stream ended at cycle %d before the first refresh", seed, cycle)
	}
	if dense.Stats.Requests != id || dense.InFlight() != 0 || sparse.InFlight() != 0 {
		t.Fatalf("seed %#x: %d requests, %d and %d left in flight after Drain",
			seed, id, dense.InFlight(), sparse.InFlight())
	}
	if dense.Stats != sparse.Stats {
		t.Fatalf("seed %#x: statistics diverged:\n dense  %+v\n sparse %+v", seed, dense.Stats, sparse.Stats)
	}
}
