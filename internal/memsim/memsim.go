// Package memsim is the SIMT-aware, multi-core, multi-level cache and
// memory performance simulator that both original applications and G-MAP
// proxies are evaluated on (§5: "a validated SIMT-aware multi-core,
// multi-level cache and memory simulator ... based on CMP$im", with
// Ramulator modeling the memory system).
//
// It consumes coalesced warp-level request streams, assigns threadblocks
// to cores following Fermi's model, and drives per-core warp queues with a
// configurable scheduling policy (LRR, GTO, or the SchedPself
// approximation of §4.5). Each core issues at most one memory request per
// cycle from a ready warp; the warp is then delayed in proportion to the
// request's latency — L1 hit, L2 hit, or a full DRAM round trip through an
// MSHR-bounded miss path — closing the loop between scheduling and memory
// behaviour. Core and memory clocks are treated as 1:1.
//
// A run is serial: every simulated cycle visits the cores in order on the
// calling goroutine, and each issued request runs through the L1, the L2
// and the DRAM controller before the next core issues. Throughput across
// a design-space sweep comes from running many simulations at once
// (internal/runner), not from parallelism inside one; DESIGN.md §12
// describes the hot-path data layout.
package memsim

import (
	"fmt"

	"github.com/uteda/gmap/internal/cache"
	"github.com/uteda/gmap/internal/dram"
	"github.com/uteda/gmap/internal/obs"
	obstrace "github.com/uteda/gmap/internal/obs/trace"
	"github.com/uteda/gmap/internal/prefetch"
	"github.com/uteda/gmap/internal/rng"
	"github.com/uteda/gmap/internal/trace"
)

// SchedPolicy selects the warp scheduler.
type SchedPolicy int

// Supported warp scheduling policies.
const (
	// LRR is loose round-robin: ready warps issue in rotating order.
	LRR SchedPolicy = iota
	// GTO is greedy-then-oldest: keep issuing the current warp until it
	// stalls, then switch to the oldest ready warp.
	GTO
	// PSelf is the paper's SchedPself approximation: with probability
	// Config.SchedPself the previously scheduled warp issues again,
	// otherwise round-robin advances.
	PSelf
)

// String returns "lrr", "gto" or "pself".
func (p SchedPolicy) String() string {
	switch p {
	case GTO:
		return "gto"
	case PSelf:
		return "pself"
	default:
		return "lrr"
	}
}

// Config describes the simulated memory hierarchy.
type Config struct {
	// NumCores is the SM count (Table 2: 15).
	NumCores int
	// BlocksPerCore bounds resident threadblocks per SM (default 8).
	BlocksPerCore int
	// L1 is the per-core L1 data cache; L2 the shared cache, split into
	// L2Banks address-interleaved banks.
	L1      cache.Config
	L2      cache.Config
	L2Banks int
	// Latencies in core cycles.
	L1HitLatency uint64
	L2HitLatency uint64
	// MSHRsPerCore bounds outstanding L1 misses per core (Table 2: 64);
	// 0 means unbounded.
	MSHRsPerCore int
	// NewL1Prefetcher, when non-nil, builds one L1 prefetcher per core.
	NewL1Prefetcher func() (prefetch.Prefetcher, error)
	// L2Prefetcher, when non-nil, observes the shared L2 demand stream.
	L2Prefetcher prefetch.Prefetcher
	// DRAM configures the memory system.
	DRAM dram.Config
	// Scheduler selects the warp scheduling policy; SchedPself is the
	// repeat probability used by PSelf.
	Scheduler  SchedPolicy
	SchedPself float64
	// Seed drives stochastic scheduling decisions.
	Seed uint64
	// Obs, when non-nil, receives live instrumentation: per-core
	// warp-queue depth and MSHR occupancy series, cumulative and
	// per-launch miss-rate samples, scheduler stall reasons, L2 bank
	// conflicts and DRAM row/queue/latency activity. Observability is
	// write-only: Metrics are bit-identical whether Obs is set or nil.
	Obs *obs.Registry
	// TraceSpan, when non-nil, parents the simulation's spans: one
	// "memsim.run" child covering the whole Run with its begin/end cycles
	// recorded, plus one "memsim.epoch" child per kernel-launch window on
	// multi-launch streams. Write-only, like Obs.
	TraceSpan *obstrace.Span
}

// DefaultConfig returns the Table 2 profiled system: 15 SMs, 16KB 4-way
// 128B L1 (1-cycle hits), 1MB 8-way 8-bank 128B L2, 64 MSHRs/core, LRR
// scheduling, GDDR3 memory.
func DefaultConfig() Config {
	return Config{
		NumCores:      15,
		BlocksPerCore: 8,
		L1:            cache.Config{SizeBytes: 16 * 1024, Ways: 4, LineSize: 128},
		L2:            cache.Config{SizeBytes: 1 << 20, Ways: 8, LineSize: 128},
		L2Banks:       8,
		L1HitLatency:  1,
		L2HitLatency:  20,
		MSHRsPerCore:  64,
		DRAM:          dram.DefaultGDDR3(),
		Scheduler:     LRR,
	}
}

// Metrics aggregates one simulation run.
type Metrics struct {
	// Cycles is the simulated execution time.
	Cycles uint64
	// Requests is the number of demand requests issued.
	Requests uint64
	// L1 aggregates all cores' L1 statistics; L2 all banks'.
	L1 cache.Stats
	L2 cache.Stats
	// DRAM carries the memory-system statistics.
	DRAM dram.Stats
	// MSHRStalls counts issue slots lost to a full MSHR file.
	MSHRStalls uint64
	// PerLaunch breaks the run down by kernel launch (sequences only):
	// one entry per launch with that launch's share of the activity.
	PerLaunch []LaunchMetrics
}

// LaunchMetrics is one kernel launch's slice of a sequence run.
type LaunchMetrics struct {
	// Launch is the position in the sequence.
	Launch int
	// Cycles is the launch's wall-clock share (start of admission to full
	// retirement).
	Cycles uint64
	// Requests counts demand requests issued during the launch.
	Requests uint64
	// L1 and L2 hold the launch's cache activity deltas.
	L1 cache.Stats
	L2 cache.Stats
}

// L1MissRate is a convenience accessor.
func (m Metrics) L1MissRate() float64 { return m.L1.MissRate() }

// L2MissRate is a convenience accessor.
func (m Metrics) L2MissRate() float64 { return m.L2.MissRate() }

type warpState struct {
	requests  []trace.Request
	cursor    int
	readyAt   uint64
	waiting   bool // blocked on a DRAM completion
	atBarrier bool // parked at a bar.sync until the block converges
	block     int
}

func (w *warpState) done() bool { return w.cursor >= len(w.requests) }

// notReady is the nextReady slot value for warps the scheduler must skip
// (stream finished, blocked on DRAM, or parked at a barrier).
const notReady = ^uint64(0)

type coreState struct {
	blocks    []int // block ids assigned to this core, arrival order
	nextBlock int   // index into blocks of the next non-resident block
	resident  int   // blocks currently resident (admitted, not finished)
	active    []int // warp indices currently resident, residency order
	rr        int   // round-robin pointer into active
	lastWarp  int   // warp index (global) of the last scheduled warp, -1 if none
	// pendingDone counts active warps that have finished their stream but
	// not yet retired; compactCore's retirement scan is skipped entirely
	// while it is zero.
	pendingDone int
	mshr        *cache.MSHRFile
	l1          *cache.Cache
	l1pf        prefetch.Prefetcher
	// Outstanding DRAM reads owned by this core: request id -> flight and
	// L1 line -> request id (secondary-miss merging).
	flights    map[uint64]*flight
	lineFlight map[uint64]uint64
	flightPool []*flight // retired flight records, reused to curb allocation
}

// flight tracks one outstanding DRAM read: the L1 line it fills and the
// warps blocked on it. The owning core is the map key's context.
type flight struct {
	line  uint64
	warps []int
}

// Simulator runs warp streams through the hierarchy. Create one per run
// with New (single kernel) or NewSequence (an application's kernel
// launches, run back to back with cache and DRAM state persisting across
// launches); it is not reusable after Run.
type Simulator struct {
	cfg   Config
	warps []warpState
	// nextReady is the scheduler's struct-of-arrays hot column: one word
	// per warp holding readyAt, or notReady when the warp is done, waiting
	// on DRAM or parked at a barrier. Ready checks in the issue scan and
	// the next-event search are a single load and compare; warpState stays
	// the authoritative record and refreshReady keeps the column in sync
	// at every transition.
	nextReady  []uint64
	cores      []coreState
	blockWarps [][]int
	blockRem   []int
	blockWait  []int // warps currently parked at a barrier, per block
	// epochOf[b] is the kernel launch a block belongs to; blocks of launch
	// e+1 are admitted only after every launch-e warp retired (the
	// implicit device-wide synchronization between dependent kernels).
	epochOf  []int
	epochRem []int
	epoch    int
	// remaining counts warps not yet retired; Run ends when it hits zero.
	remaining int
	l2        *cache.Banked
	l2pf      prefetch.Prefetcher
	dram      *dram.Controller
	rnd       *rng.Rand
	// flightCore routes DRAM completions to the core whose flight they
	// finish.
	flightCore map[uint64]int
	metrics    Metrics
	// obs carries the pre-resolved observability handles; nil when
	// disabled (see obs.go).
	obs *simObs
	// compBuf is the reused per-cycle DRAM completion batch.
	compBuf []dram.Completion
	// Epoch-boundary snapshots for the per-launch breakdown.
	lastSnap struct {
		cycle    uint64
		requests uint64
		l1, l2   cache.Stats
	}

	// runSpan/epochSpan are the open trace spans of the current Run;
	// both are nil (no-op) when Config.TraceSpan is unset.
	runSpan   *obstrace.Span
	epochSpan *obstrace.Span
}

// New builds a simulator over the given warp streams. Warps carry their
// threadblock in WarpTrace.Block; blocks are assigned to cores round-robin
// as in §4.5 and become resident up to BlocksPerCore at a time, with new
// blocks admitted as resident ones finish.
func New(warps []trace.WarpTrace, cfg Config) (*Simulator, error) {
	return NewSequence([][]trace.WarpTrace{warps}, cfg)
}

// NewSequence builds a simulator over an application's kernel launches.
// Launches execute in order — a launch's blocks are admitted only after
// the previous launch fully retires — while the caches and the memory
// controller keep their state, so inter-kernel locality (and pollution)
// behaves as on hardware.
func NewSequence(launches [][]trace.WarpTrace, cfg Config) (*Simulator, error) {
	if len(launches) == 0 {
		return nil, fmt.Errorf("memsim: no launches")
	}
	// Flatten: per-launch block ids are offset so they stay disjoint.
	var warps []trace.WarpTrace
	var epochs []int
	blockBase := 0
	for li, lw := range launches {
		maxBlock := -1
		for _, w := range lw {
			w.Block += blockBase
			warps = append(warps, w)
			epochs = append(epochs, li)
			if w.Block > maxBlock {
				maxBlock = w.Block
			}
		}
		if maxBlock >= blockBase {
			blockBase = maxBlock + 1
		}
	}
	return newSim(warps, epochs, len(launches), cfg)
}

func newSim(warps []trace.WarpTrace, warpEpochs []int, numEpochs int, cfg Config) (*Simulator, error) {
	if cfg.NumCores <= 0 {
		return nil, fmt.Errorf("memsim: %d cores", cfg.NumCores)
	}
	if cfg.BlocksPerCore <= 0 {
		cfg.BlocksPerCore = 8
	}
	if cfg.L1HitLatency == 0 {
		cfg.L1HitLatency = 1
	}
	if cfg.L2HitLatency == 0 {
		cfg.L2HitLatency = 20
	}
	if cfg.L2Banks <= 0 {
		cfg.L2Banks = 1
	}
	if len(warps) == 0 {
		return nil, fmt.Errorf("memsim: no warps")
	}
	s := &Simulator{
		cfg:        cfg,
		rnd:        rng.New(cfg.Seed ^ 0x51713),
		flightCore: make(map[uint64]int),
	}
	var err error
	if s.l2, err = cache.NewBanked(cfg.L2, cfg.L2Banks); err != nil {
		return nil, err
	}
	if s.dram, err = dram.NewController(cfg.DRAM); err != nil {
		return nil, err
	}
	s.obs = newSimObs(cfg.Obs, cfg.NumCores, cfg.L2Banks)
	s.l2.AttachObs(cfg.Obs, "l2")
	s.dram.AttachObs(cfg.Obs)
	s.l2pf = cfg.L2Prefetcher
	if s.l2pf == nil {
		s.l2pf = prefetch.Nil{}
	} else {
		s.l2pf = prefetch.Instrument(s.l2pf, cfg.Obs, "prefetch.l2")
	}

	numBlocks := 0
	for i := range warps {
		if warps[i].Block < 0 {
			return nil, fmt.Errorf("memsim: warp %d has negative block", i)
		}
		if warps[i].Block+1 > numBlocks {
			numBlocks = warps[i].Block + 1
		}
	}
	s.blockRem = make([]int, numBlocks)
	s.blockWait = make([]int, numBlocks)
	s.blockWarps = make([][]int, numBlocks)
	s.epochOf = make([]int, numBlocks)
	s.epochRem = make([]int, numEpochs)
	s.warps = make([]warpState, len(warps))
	for i := range warps {
		b := warps[i].Block
		s.warps[i] = warpState{requests: warps[i].Requests, block: b}
		s.blockWarps[b] = append(s.blockWarps[b], i)
		s.blockRem[b]++
		s.epochOf[b] = warpEpochs[i]
		s.epochRem[warpEpochs[i]]++
	}
	s.nextReady = make([]uint64, len(warps))
	for i := range s.warps {
		s.refreshReady(i)
	}

	s.cores = make([]coreState, cfg.NumCores)
	for c := range s.cores {
		core := &s.cores[c]
		core.mshr = cache.NewMSHRFile(cfg.MSHRsPerCore)
		core.lastWarp = -1
		core.flights = make(map[uint64]*flight)
		core.lineFlight = make(map[uint64]uint64)
		l1cfg := cfg.L1
		l1cfg.Seed = cfg.Seed + uint64(c)
		if core.l1, err = cache.New(l1cfg); err != nil {
			return nil, err
		}
		if cfg.NewL1Prefetcher != nil {
			if core.l1pf, err = cfg.NewL1Prefetcher(); err != nil {
				return nil, err
			}
			// All cores share the prefetch.l1 counters; the per-core
			// tracking state stays private to each wrapper.
			core.l1pf = prefetch.Instrument(core.l1pf, cfg.Obs, "prefetch.l1")
		} else {
			core.l1pf = prefetch.Nil{}
		}
	}
	// Round-robin threadblock assignment (§4.5), then initial residency.
	for b := 0; b < numBlocks; b++ {
		c := b % cfg.NumCores
		s.cores[c].blocks = append(s.cores[c].blocks, b)
	}
	for c := range s.cores {
		core := &s.cores[c]
		for core.nextBlock < len(core.blocks) && core.resident < cfg.BlocksPerCore {
			before := core.nextBlock
			s.admitBlock(core)
			if core.nextBlock == before {
				break // next block belongs to a future launch
			}
		}
	}
	return s, nil
}

// refreshReady recomputes a warp's scheduler-visible readiness slot after
// a state transition.
func (s *Simulator) refreshReady(wi int) {
	ws := &s.warps[wi]
	if ws.done() || ws.waiting || ws.atBarrier {
		s.nextReady[wi] = notReady
		return
	}
	s.nextReady[wi] = ws.readyAt
}

// advanceCursor consumes warp wi's current request, tracking the core's
// pending-retirement count when the stream finishes.
func (s *Simulator) advanceCursor(core *coreState, wi int) {
	ws := &s.warps[wi]
	ws.cursor++
	if ws.done() {
		core.pendingDone++
	}
}

// admitBlock moves the core's next assigned block into residency, unless
// it belongs to a future kernel launch (epoch) that has not started yet.
// Blocks without warps (gaps in the block-id space) complete trivially and
// never occupy residency.
func (s *Simulator) admitBlock(core *coreState) {
	for core.nextBlock < len(core.blocks) {
		b := core.blocks[core.nextBlock]
		if s.epochOf[b] > s.epoch {
			return
		}
		core.nextBlock++
		if len(s.blockWarps[b]) == 0 {
			continue
		}
		core.resident++
		core.active = append(core.active, s.blockWarps[b]...)
		for _, wi := range s.blockWarps[b] {
			if s.warps[wi].done() {
				core.pendingDone++ // empty stream: retires on the next compact
			}
		}
		return
	}
}

// Run executes the simulation to completion and returns the metrics.
func (s *Simulator) Run() (Metrics, error) {
	if s.obs != nil {
		// The hierarchy's hot paths count into plain tallies; publish
		// them to the registry on every return path.
		defer func() {
			s.obs.flush()
			s.l2.FlushObs()
			s.dram.FlushObs()
		}()
	}
	var cycle uint64
	s.runSpan = s.cfg.TraceSpan.Child("memsim.run",
		obstrace.Int("warps", int64(len(s.warps))),
		obstrace.Int("cores", int64(s.cfg.NumCores)))
	if len(s.epochRem) > 1 {
		s.epochSpan = s.runSpan.Child("memsim.epoch", obstrace.Int("epoch", 0))
	}
	defer func() {
		// Close a dangling epoch span (no-progress error path) before the
		// run span; cycle holds the final simulated cycle either way.
		s.epochSpan.End()
		s.runSpan.SetCycles(0, cycle)
		s.runSpan.End()
	}()
	// Every warp retires exactly once, through compactCore; warps with no
	// memory work retire on the first pass.
	s.remaining = len(s.warps)
	for c := range s.cores {
		s.compactCore(c, 0)
	}
	guard := uint64(0)
	for s.remaining > 0 {
		guard++
		if guard > 1<<34 {
			return s.metrics, fmt.Errorf("memsim: no forward progress (cycle %d, %d warps left)", cycle, s.remaining)
		}
		s.compBuf = s.dram.AdvanceInto(cycle, s.compBuf[:0])
		for _, comp := range s.compBuf {
			s.complete(comp)
		}
		if s.obs != nil {
			s.sampleCycle(cycle)
		}
		issued := false
		for c := range s.cores {
			if s.issue(c, cycle) {
				issued = true
			} else if s.obs != nil {
				s.noteStall(c)
			}
		}
		for c := range s.cores {
			s.compactCore(c, cycle)
		}
		s.advanceEpochs(cycle)
		if issued {
			cycle++
			continue
		}
		next := s.nextEvent(cycle)
		if next <= cycle {
			next = cycle + 1
		}
		cycle = next
	}
	for _, comp := range s.dram.Drain() {
		s.complete(comp)
	}
	if len(s.epochRem) > 1 {
		s.recordLaunch(cycle)
	}
	s.metrics.Cycles = cycle
	for c := range s.cores {
		s.metrics.L1.Add(s.cores[c].l1.Stats)
	}
	s.metrics.L2 = s.l2.Stats()
	s.metrics.DRAM = s.dram.Stats
	return s.metrics, nil
}

// advanceEpochs moves to the next kernel launch when the current one fully
// retires (implicit device synchronization between launches).
func (s *Simulator) advanceEpochs(cycle uint64) {
	for s.epoch+1 < len(s.epochRem) && s.epochRem[s.epoch] == 0 {
		s.recordLaunch(cycle)
		s.epoch++
		for c := range s.cores {
			core := &s.cores[c]
			for core.nextBlock < len(core.blocks) && core.resident < s.cfg.BlocksPerCore {
				before := core.nextBlock
				s.admitBlock(core)
				if core.nextBlock == before {
					break
				}
			}
		}
	}
}

// recordLaunch closes the current launch's per-epoch metric window.
func (s *Simulator) recordLaunch(cycle uint64) {
	var l1 cache.Stats
	for c := range s.cores {
		l1.Add(s.cores[c].l1.Stats)
	}
	l2 := s.l2.Stats()
	lm := LaunchMetrics{
		Launch:   s.epoch,
		Cycles:   cycle - s.lastSnap.cycle,
		Requests: s.metrics.Requests - s.lastSnap.requests,
	}
	lm.L1 = diffStats(l1, s.lastSnap.l1)
	lm.L2 = diffStats(l2, s.lastSnap.l2)
	if s.obs != nil {
		s.obs.noteLaunch(lm, cycle)
	}
	// Close this launch's epoch span over its cycle window and open the
	// next launch's (unless this was the last).
	s.epochSpan.SetCycles(s.lastSnap.cycle, cycle)
	s.epochSpan.End()
	s.epochSpan = nil
	if s.epoch+1 < len(s.epochRem) {
		s.epochSpan = s.runSpan.Child("memsim.epoch", obstrace.Int("epoch", int64(s.epoch+1)))
	}
	s.metrics.PerLaunch = append(s.metrics.PerLaunch, lm)
	s.lastSnap.cycle = cycle
	s.lastSnap.requests = s.metrics.Requests
	s.lastSnap.l1 = l1
	s.lastSnap.l2 = l2
}

// diffStats subtracts an earlier snapshot from a later one.
func diffStats(now, before cache.Stats) cache.Stats {
	return cache.Stats{
		Accesses:       now.Accesses - before.Accesses,
		Hits:           now.Hits - before.Hits,
		Misses:         now.Misses - before.Misses,
		Reads:          now.Reads - before.Reads,
		Writes:         now.Writes - before.Writes,
		Evictions:      now.Evictions - before.Evictions,
		Writebacks:     now.Writebacks - before.Writebacks,
		PrefetchFills:  now.PrefetchFills - before.PrefetchFills,
		PrefetchUseful: now.PrefetchUseful - before.PrefetchUseful,
	}
}

// complete wakes the warps blocked on a finished DRAM read and releases
// the owning core's MSHR entry.
func (s *Simulator) complete(comp dram.Completion) {
	c, ok := s.flightCore[comp.ID]
	if !ok {
		return // fire-and-forget traffic (writebacks, prefetches)
	}
	delete(s.flightCore, comp.ID)
	core := &s.cores[c]
	f := core.flights[comp.ID]
	for _, wi := range f.warps {
		ws := &s.warps[wi]
		ws.waiting = false
		ws.readyAt = comp.Done
		s.refreshReady(wi)
	}
	if s.obs != nil {
		s.obs.waiting[c] -= len(f.warps)
	}
	core.mshr.Release(f.line)
	delete(core.lineFlight, f.line)
	delete(core.flights, comp.ID)
	f.warps = f.warps[:0]
	core.flightPool = append(core.flightPool, f)
}

// compactCore retires finished warps, admits follow-on blocks, and keeps
// scheduler pointers valid. While no active warp has finished its stream
// (pendingDone == 0) the scan is skipped outright — retirement is
// event-driven, not a per-cycle sweep.
func (s *Simulator) compactCore(c int, cycle uint64) {
	core := &s.cores[c]
	if core.pendingDone == 0 {
		return
	}
	compact := core.active[:0]
	admissions := 0
	for _, wi := range core.active {
		ws := &s.warps[wi]
		if ws.done() && !ws.waiting && ws.readyAt <= cycle {
			core.pendingDone--
			s.remaining--
			s.blockRem[ws.block]--
			s.epochRem[s.epochOf[ws.block]]--
			if s.blockRem[ws.block] == 0 {
				core.resident--
				admissions++
			} else if s.blockWait[ws.block] >= s.blockRem[ws.block] {
				// The retiree was the last warp the barrier was waiting
				// for: release the parked ones.
				s.releaseBarrier(c, ws.block, cycle)
			}
			continue
		}
		compact = append(compact, wi)
	}
	// Admit follow-on blocks only after compaction: admitBlock appends to
	// core.active, which would otherwise race the in-place filter above.
	core.active = compact
	for i := 0; i < admissions; i++ {
		s.admitBlock(core)
	}
	if core.rr >= len(core.active) {
		core.rr = 0
	}
}

// issue runs core c's issue slot for one visited cycle: the scheduler
// pick, then either a barrier arrival or one request through the memory
// hierarchy. It reports whether the core consumed its issue slot.
func (s *Simulator) issue(c int, cycle uint64) bool {
	core := &s.cores[c]
	n := len(core.active)
	if n == 0 {
		return false
	}
	ready := func(wi int) bool { return s.nextReady[wi] <= cycle }
	pick := -1
	switch s.cfg.Scheduler {
	case GTO:
		// Greedy: stick with the last warp while ready; else oldest ready
		// (first in residency order).
		if core.lastWarp >= 0 {
			for i := 0; i < n; i++ {
				if core.active[i] == core.lastWarp && ready(core.active[i]) {
					pick = i
					break
				}
			}
		}
		if pick < 0 {
			for i := 0; i < n; i++ {
				if ready(core.active[i]) {
					pick = i
					break
				}
			}
		}
	case PSelf:
		// One repeat draw per visited cycle for every core with resident
		// warps and a previously scheduled warp.
		if core.lastWarp >= 0 && s.rnd.Bool(s.cfg.SchedPself) {
			for i := 0; i < n; i++ {
				if core.active[i] == core.lastWarp && ready(core.active[i]) {
					pick = i
					break
				}
			}
		}
		if pick < 0 {
			for i := 1; i <= n; i++ {
				idx := (core.rr + i) % n
				if ready(core.active[idx]) {
					pick = idx
					core.rr = idx
					break
				}
			}
		}
	default: // LRR
		for i := 1; i <= n; i++ {
			idx := (core.rr + i) % n
			if ready(core.active[idx]) {
				pick = idx
				core.rr = idx
				break
			}
		}
	}
	if pick < 0 {
		return false
	}
	wi := core.active[pick]
	core.lastWarp = wi
	ws := &s.warps[wi]
	req := ws.requests[ws.cursor]
	if req.Kind == trace.Sync {
		// Threadblock barrier (§4.5): park the warp; when every live warp
		// of the block has arrived, release them all past the barrier.
		s.arriveBarrier(c, wi, cycle)
		return true
	}
	if !s.access(c, wi, req, cycle) {
		// MSHR full: the slot is lost and the warp retries later.
		s.metrics.MSHRStalls++
		if s.obs != nil {
			s.obs.tally.nStallMSHR++
		}
		ws.readyAt = cycle + 1
		s.nextReady[wi] = cycle + 1
		return true
	}
	s.advanceCursor(core, wi)
	s.refreshReady(wi)
	return true
}

// arriveBarrier parks warp wi at its block's barrier, releasing the whole
// block once every live warp has arrived. Warps that retire early (fewer
// barriers on their divergent path) simply stop counting toward the
// block's live population.
func (s *Simulator) arriveBarrier(c, wi int, cycle uint64) {
	ws := &s.warps[wi]
	b := ws.block
	ws.atBarrier = true
	s.nextReady[wi] = notReady
	if s.obs != nil {
		s.obs.tally.nBarriers++
		s.obs.blocked[c]++
	}
	s.blockWait[b]++
	if s.blockWait[b] >= s.blockRem[b] {
		s.releaseBarrier(c, b, cycle)
	}
}

// releaseBarrier frees every warp parked at block b's barrier. c is the
// core block b resides on (a block is never split across cores).
func (s *Simulator) releaseBarrier(c, b int, cycle uint64) {
	core := &s.cores[c]
	for _, other := range s.blockWarps[b] {
		ow := &s.warps[other]
		if ow.atBarrier {
			ow.atBarrier = false
			ow.readyAt = cycle + 1
			s.advanceCursor(core, other)
			s.refreshReady(other)
			if s.obs != nil {
				s.obs.blocked[c]--
			}
		}
	}
	s.blockWait[b] = 0
}

// access sends one demand request of warp wi through the hierarchy:
// secondary-miss merging, the stall-before-touch MSHR check, the L1 and
// its prefetcher, then the L2, the L2 prefetcher and the DRAM controller.
// It returns false, with no state touched, when the MSHR file is full and
// the line is nowhere in the hierarchy.
func (s *Simulator) access(c, wi int, req trace.Request, cycle uint64) bool {
	core := &s.cores[c]
	ws := &s.warps[wi]
	write := req.Kind == trace.Store
	line := core.l1.LineAddr(req.Addr)

	// Secondary miss on an in-flight line: merge into the outstanding
	// entry and wait for the same completion.
	if reqID, inflight := core.lineFlight[line]; inflight {
		core.mshr.Allocate(line)
		core.l1.Stats.Accesses++
		core.l1.Stats.Misses++
		if write {
			core.l1.Stats.Writes++
		} else {
			core.l1.Stats.Reads++
		}
		s.metrics.Requests++
		ws.waiting = true
		if s.obs != nil {
			s.obs.tally.nRequests++
			s.obs.waiting[c]++
		}
		core.flights[reqID].warps = append(core.flights[reqID].warps, wi)
		return true
	}

	// Stall-before-touch: if servicing this request would need a new MSHR
	// entry and the file is full, reject it before any cache state or
	// statistic changes — a stalled request must replay identically.
	// Write-through stores never allocate an MSHR.
	wouldAllocate := !(write && core.l1.Config().Writes == cache.WriteThroughNoAllocate)
	if wouldAllocate && core.mshr.Full() && !core.l1.Probe(req.Addr) && !s.l2.Probe(req.Addr) {
		return false
	}

	res := core.l1.Access(req.Addr, write)
	s.metrics.Requests++
	if s.obs != nil {
		s.obs.tally.nRequests++
	}
	// The L1 prefetcher's candidates, in candidate order: each accepted
	// one is filled into the L1, its dirty victim written back, and the
	// line fetched through the L2. This order fixes the DRAM request ids.
	for _, cand := range core.l1pf.Observe(req.PC, req.WarpID, line, !res.Hit) {
		if core.l1.Probe(cand) {
			continue
		}
		if fill := core.l1.Fill(cand); fill.Evicted && fill.EvictedDirty {
			s.l2WriteBack(fill.EvictedAddr, cycle)
		}
		if l2res := s.l2.Access(cand, false); !l2res.Hit {
			if l2res.Evicted && l2res.EvictedDirty {
				s.dram.Enqueue(l2res.EvictedAddr, true, cycle)
			}
			s.dram.Enqueue(s.l2.LineAddr(cand), false, cycle)
		}
	}
	if res.WroteThrough {
		// Write-through L1: the store propagates to the L2 and the warp
		// continues behind a store buffer — it is never blocked on the
		// write's completion.
		ws.readyAt = cycle + s.cfg.L1HitLatency
		if s.obs != nil {
			s.obs.noteL2Bank(s.l2.BankOf(req.Addr), cycle)
		}
		if l2res := s.l2.Access(req.Addr, true); !l2res.Hit {
			if l2res.Evicted && l2res.EvictedDirty {
				s.dram.Enqueue(l2res.EvictedAddr, true, cycle)
			}
			s.dram.Enqueue(s.l2.LineAddr(req.Addr), true, cycle)
		}
		return true
	}
	if res.Hit {
		ws.readyAt = cycle + s.cfg.L1HitLatency
		return true
	}
	if res.Evicted && res.EvictedDirty {
		s.l2WriteBack(res.EvictedAddr, cycle)
	}
	if s.obs != nil {
		s.obs.noteL2Bank(s.l2.BankOf(req.Addr), cycle)
	}
	l2res := s.l2.Access(req.Addr, write)
	if pf := s.l2pf.Observe(req.PC, req.WarpID, s.l2.LineAddr(req.Addr), !l2res.Hit); pf != nil {
		s.l2PrefetchFill(pf, cycle)
	}
	if l2res.Hit {
		ws.readyAt = cycle + s.cfg.L2HitLatency
		return true
	}
	if l2res.Evicted && l2res.EvictedDirty {
		s.dram.Enqueue(l2res.EvictedAddr, true, cycle)
	}
	// The stall-before-touch check guaranteed an entry is available.
	core.mshr.Allocate(line)
	reqID := s.dram.Enqueue(s.l2.LineAddr(req.Addr), write, cycle)
	var f *flight
	if n := len(core.flightPool); n > 0 {
		f = core.flightPool[n-1]
		core.flightPool = core.flightPool[:n-1]
		f.line = line
		f.warps = append(f.warps, wi)
	} else {
		f = &flight{line: line, warps: []int{wi}}
	}
	core.flights[reqID] = f
	core.lineFlight[line] = reqID
	s.flightCore[reqID] = c
	ws.waiting = true
	if s.obs != nil {
		s.obs.waiting[c]++
	}
	return true
}

// l2PrefetchFill installs stream-prefetch candidates into the L2.
func (s *Simulator) l2PrefetchFill(cands []uint64, cycle uint64) {
	for _, cand := range cands {
		if s.l2.Probe(cand) {
			continue
		}
		fill := s.l2.Fill(cand)
		if fill.Evicted && fill.EvictedDirty {
			s.dram.Enqueue(fill.EvictedAddr, true, cycle)
		}
		s.dram.Enqueue(cand, false, cycle)
	}
}

// l2WriteBack sends an L1 dirty victim into the L2.
func (s *Simulator) l2WriteBack(addr uint64, cycle uint64) {
	res := s.l2.Access(addr, true)
	if !res.Hit && res.Evicted && res.EvictedDirty {
		s.dram.Enqueue(res.EvictedAddr, true, cycle)
	}
}

// nextEvent returns the earliest future cycle at which anything can
// happen: a warp becoming ready or a DRAM completion. It is only called
// when no core could issue, which means every pending arrival is already
// enqueued — making the controller's minimal-service peek exact. The scan
// reads the nextReady column only: done, waiting and parked warps sit at
// notReady and fall out of the comparison.
func (s *Simulator) nextEvent(cycle uint64) uint64 {
	next := notReady
	for c := range s.cores {
		for _, wi := range s.cores[c].active {
			if t := s.nextReady[wi]; t > cycle && t < next {
				next = t
			}
		}
	}
	if t, ok := s.dram.NextCompletion(); ok && t < next {
		next = t
	}
	if next == notReady {
		return cycle + 1
	}
	return next
}
