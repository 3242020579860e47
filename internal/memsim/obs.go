package memsim

import (
	"fmt"

	"github.com/uteda/gmap/internal/obs"
)

// hotTally is the simulator's plain hot-path counters; flush() publishes
// them to the registry counters.
type hotTally struct {
	nStallMSHR    uint64
	nStallBarrier uint64
	nStallMem     uint64
	nStallSleep   uint64
	nIdleEmpty    uint64
	nRequests     uint64
	nBarriers     uint64
	nBankConflict uint64
}

// simObs holds the simulator's pre-resolved observability handles. A nil
// *simObs is the disabled state: every call site guards with one
// predictable branch (either `s.obs != nil` around a sampling block or a
// nil-safe handle method) and the simulation itself never reads obs
// state, so metrics are bit-identical with observability on or off — a
// property enforced by TestObsInvariance.
type simObs struct {
	// Per-core cycle-sampled series.
	queueDepth []*obs.Sampler // resident (active) warps per core
	mshrDepth  []*obs.Sampler // in-flight MSHR entries per core

	// Whole-machine cycle-sampled series.
	l1MissRate *obs.Sampler // cumulative L1 miss rate over time
	l2MissRate *obs.Sampler
	inFlight   *obs.Sampler // outstanding DRAM reads (flights)

	// Per-launch series: one point per kernel launch, keyed by the
	// launch's retirement cycle.
	launchL1 *obs.Sampler
	launchL2 *obs.Sampler

	// Scheduler stall reasons, counted per core-cycle that fails to
	// issue.
	stallMSHR    *obs.Counter // issue slot lost to a full MSHR file
	stallBarrier *obs.Counter // every candidate warp parked at a barrier
	stallMem     *obs.Counter // every candidate warp blocked on DRAM
	stallSleep   *obs.Counter // warps exist but become ready later
	idleEmpty    *obs.Counter // core has no resident warps at all

	requests      *obs.Counter
	launches      *obs.Counter
	barriers      *obs.Counter // barrier arrivals
	bankConflicts *obs.Counter // same-cycle accesses to one L2 bank

	// bankStamp[b] = cycle+1 of bank b's last access this cycle; a repeat
	// stamp within one cycle is a conflict.
	bankStamp []uint64

	// tally counts on the hot path; flush() publishes it after Run.
	tally hotTally

	// Incremental per-core occupancy shadows, maintained at warp state
	// transitions so stall classification is O(1) instead of rescanning
	// the core's warps every stalled cycle. waiting[c] counts warps
	// blocked on DRAM, blocked[c] counts warps parked at a barrier.
	waiting []int
	blocked []int
}

// newSimObs resolves every handle against r, or returns nil (disabled)
// when r is nil.
func newSimObs(r *obs.Registry, cores, banks int) *simObs {
	if r == nil {
		return nil
	}
	o := &simObs{
		queueDepth: make([]*obs.Sampler, cores),
		mshrDepth:  make([]*obs.Sampler, cores),
		l1MissRate: r.Sampler("memsim.l1_miss_rate", 0),
		l2MissRate: r.Sampler("memsim.l2_miss_rate", 0),
		inFlight:   r.Sampler("memsim.dram_inflight", 0),
		launchL1:   r.Sampler("memsim.launch.l1_miss_rate", 0),
		launchL2:   r.Sampler("memsim.launch.l2_miss_rate", 0),

		stallMSHR:    r.Counter("memsim.sched.stall_mshr"),
		stallBarrier: r.Counter("memsim.sched.stall_barrier"),
		stallMem:     r.Counter("memsim.sched.stall_mem"),
		stallSleep:   r.Counter("memsim.sched.stall_sleep"),
		idleEmpty:    r.Counter("memsim.sched.idle_empty"),

		requests:      r.Counter("memsim.requests"),
		launches:      r.Counter("memsim.launches"),
		barriers:      r.Counter("memsim.sched.barrier_arrivals"),
		bankConflicts: r.Counter("memsim.l2.bank_conflicts"),

		bankStamp: make([]uint64, banks),
		waiting:   make([]int, cores),
		blocked:   make([]int, cores),
	}
	for c := 0; c < cores; c++ {
		o.queueDepth[c] = r.Sampler(fmt.Sprintf("memsim.core%d.warp_queue_depth", c), 0)
		o.mshrDepth[c] = r.Sampler(fmt.Sprintf("memsim.core%d.mshr_inflight", c), 0)
	}
	return o
}

// sampleDue reports whether this cycle is a sampling cycle. Every memsim
// sampler is offered the same cycle sequence, so they all advance in
// lockstep: one Due check on the unconditionally sampled dram_inflight
// series gates the whole pass, and the steady-state cost per scheduler
// iteration is a single atomic load.
func (o *simObs) sampleDue(cycle uint64) bool {
	return o.inFlight.Due(cycle)
}

// sampleCycle records every series for one simulated cycle, after the
// cycle's DRAM completions are delivered.
func (s *Simulator) sampleCycle(cycle uint64) {
	o := s.obs
	if !o.sampleDue(cycle) {
		return
	}
	for c := range s.cores {
		core := &s.cores[c]
		o.queueDepth[c].Sample(cycle, float64(len(core.active)))
		o.mshrDepth[c].Sample(cycle, float64(core.mshr.InFlight()))
	}
	var l1, l1acc uint64
	for c := range s.cores {
		l1 += s.cores[c].l1.Stats.Misses
		l1acc += s.cores[c].l1.Stats.Accesses
	}
	if l1acc > 0 {
		o.l1MissRate.Sample(cycle, float64(l1)/float64(l1acc))
	}
	if l2 := s.l2.Stats(); l2.Accesses > 0 {
		o.l2MissRate.Sample(cycle, l2.MissRate())
	}
	o.inFlight.Sample(cycle, float64(len(s.flightCore)))
}

// noteStall classifies why core c failed to issue this cycle, with
// priority mem > barrier > sleep. O(1): the per-core occupancy shadows
// are maintained incrementally at warp state transitions, so stalled
// phases never rescan the core's resident warps.
func (s *Simulator) noteStall(c int) {
	o := s.obs
	switch {
	case len(s.cores[c].active) == 0:
		o.tally.nIdleEmpty++
	case o.waiting[c] > 0:
		o.tally.nStallMem++
	case o.blocked[c] > 0:
		o.tally.nStallBarrier++
	default:
		o.tally.nStallSleep++
	}
}

// noteL2Bank flags same-cycle accesses to one L2 bank as bank conflicts.
// Stamps are cycle+1 so the zero value never aliases cycle 0.
func (o *simObs) noteL2Bank(bank int, cycle uint64) {
	if o.bankStamp[bank] == cycle+1 {
		o.tally.nBankConflict++
		return
	}
	o.bankStamp[bank] = cycle + 1
}

// flush publishes the hot-path tallies to their registry counters and
// zeroes them. Run defers it, so the counters hold the run's totals on
// both the success and the no-forward-progress return paths.
func (o *simObs) flush() {
	t := o.tally
	o.tally = hotTally{}
	o.stallMSHR.Add(t.nStallMSHR)
	o.stallBarrier.Add(t.nStallBarrier)
	o.stallMem.Add(t.nStallMem)
	o.stallSleep.Add(t.nStallSleep)
	o.idleEmpty.Add(t.nIdleEmpty)
	o.requests.Add(t.nRequests)
	o.barriers.Add(t.nBarriers)
	o.bankConflicts.Add(t.nBankConflict)
}

// noteLaunch records one retired launch's metric window.
func (o *simObs) noteLaunch(lm LaunchMetrics, cycle uint64) {
	o.launches.Inc()
	if lm.L1.Accesses > 0 {
		o.launchL1.Sample(cycle, lm.L1.MissRate())
	}
	if lm.L2.Accesses > 0 {
		o.launchL2.Sample(cycle, lm.L2.MissRate())
	}
}
