// Differential tests: the production FR-FCFS/FCFS controller against the
// refmodel's strictly in-order FIFO DRAM, in the regime where the two
// must agree exactly, plus scheduler-independent conservation invariants.
package dram_test

import (
	"testing"

	"github.com/uteda/gmap/internal/dram"
	"github.com/uteda/gmap/internal/proptest"
	"github.com/uteda/gmap/internal/refmodel"
)

// runProduction enqueues all requests (nondecreasing arrivals) under
// their own IDs and drains the controller, returning per-ID completions.
func runProduction(t *testing.T, cfg dram.Config, reqs []refmodel.DRAMRequest) (*dram.Controller, map[uint64]dram.Completion) {
	t.Helper()
	ctl, err := dram.NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reqs {
		ctl.Enqueue(r.Addr, r.Write, r.Arrival, r.ID)
	}
	out := make(map[uint64]dram.Completion, len(reqs))
	for _, c := range ctl.Drain() {
		out[c.ID] = c
	}
	return ctl, out
}

// TestFCFSMatchesFIFOReference: under FCFS scheduling with nondecreasing
// arrivals and all enqueues preceding service, the production controller
// must be cycle-identical to the in-order reference — same completion
// time and row-buffer outcome per request, same row/refresh statistics,
// and (being ratios of identical integer sums) bit-identical queue-length
// and latency averages.
func TestFCFSMatchesFIFOReference(t *testing.T) {
	n := proptest.N(t, 150, 1000)
	for i := 0; i < n; i++ {
		seed := uint64(0xd4a3 + i)
		g := proptest.New(seed)
		cfg := g.DRAMConfig()
		nreqs := 20 + g.R.Intn(200)
		addrs := g.AddrStream(nreqs, uint64(cfg.TxBytes))
		arrivals := g.MonotoneArrivals(nreqs, 40)
		reqs := make([]refmodel.DRAMRequest, nreqs)
		for j := range reqs {
			reqs[j] = refmodel.DRAMRequest{
				ID:      uint64(j),
				Addr:    addrs[j],
				Write:   g.R.Bool(0.3),
				Arrival: arrivals[j],
			}
		}
		ctl, got := runProduction(t, cfg, reqs)
		want, err := refmodel.RunFIFODRAM(cfg, reqs)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, r := range reqs {
			gc, wc := got[r.ID], want.Completions[r.ID]
			if gc.Done != wc.Done || gc.RowHit != wc.RowHit {
				t.Fatalf("seed %d req %d (addr %#x write %v arrive %d): production done=%d rowhit=%v, reference done=%d rowhit=%v",
					seed, r.ID, r.Addr, r.Write, r.Arrival, gc.Done, gc.RowHit, wc.Done, wc.RowHit)
			}
		}
		s := ctl.Stats
		if s.Reads != want.Reads || s.Writes != want.Writes ||
			s.RowHits != want.RowHits || s.RowMisses != want.RowMisses ||
			s.RowConflicts != want.RowConflicts || s.Refreshes != want.Refreshes {
			t.Fatalf("seed %d: counters diverged:\nproduction %+v\nreference  %+v", seed, s, want)
		}
		if s.AvgQueueLen() != want.AvgQueueLen ||
			s.AvgReadLatency() != want.AvgReadLatency ||
			s.AvgWriteLatency() != want.AvgWriteLatency {
			t.Fatalf("seed %d: averages diverged: queue %v/%v read %v/%v write %v/%v",
				seed, s.AvgQueueLen(), want.AvgQueueLen,
				s.AvgReadLatency(), want.AvgReadLatency,
				s.AvgWriteLatency(), want.AvgWriteLatency)
		}
	}
}

// TestFRFCFSConservation: the first-ready scheduler reorders service but
// must conserve the work — every request completes exactly once, no
// completion precedes its arrival, row outcomes partition the request
// count, and a request's data never finishes before the minimum
// row-hit latency after arrival.
func TestFRFCFSConservation(t *testing.T) {
	n := proptest.N(t, 150, 1000)
	for i := 0; i < n; i++ {
		seed := uint64(0xf4f4 + i)
		g := proptest.New(seed)
		cfg := g.DRAMConfig()
		cfg.Sched = dram.FRFCFS
		nreqs := 20 + g.R.Intn(150)
		addrs := g.AddrStream(nreqs, uint64(cfg.TxBytes))
		arrivals := g.MonotoneArrivals(nreqs, 40)
		reqs := make([]refmodel.DRAMRequest, nreqs)
		for j := range reqs {
			reqs[j] = refmodel.DRAMRequest{ID: uint64(j), Addr: addrs[j], Write: g.R.Bool(0.3), Arrival: arrivals[j]}
		}
		ctl, got := runProduction(t, cfg, reqs)
		if len(got) != nreqs {
			t.Fatalf("seed %d: %d completions for %d requests", seed, len(got), nreqs)
		}
		burst := uint64(cfg.TxBytes / (2 * cfg.BusBytes))
		if burst < 1 {
			burst = 1
		}
		minLat := uint64(cfg.TCAS) + burst
		for _, r := range reqs {
			c := got[r.ID]
			if c.Done < r.Arrival+minLat {
				t.Fatalf("seed %d req %d: done %d before arrival %d + min latency %d",
					seed, r.ID, c.Done, r.Arrival, minLat)
			}
		}
		s := ctl.Stats
		if s.RowHits+s.RowMisses+s.RowConflicts != uint64(nreqs) {
			t.Fatalf("seed %d: row outcomes %d+%d+%d don't partition %d requests",
				seed, s.RowHits, s.RowMisses, s.RowConflicts, nreqs)
		}
		if s.Requests != uint64(nreqs) || s.Reads+s.Writes != uint64(nreqs) {
			t.Fatalf("seed %d: request accounting %+v for %d requests", seed, s, nreqs)
		}
		if ctl.InFlight() != 0 {
			t.Fatalf("seed %d: %d requests still in flight after Drain", seed, ctl.InFlight())
		}
	}
}
