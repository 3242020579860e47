// Package dram is a transaction-level GDDR memory-system simulator in the
// spirit of Ramulator [11], scoped to what G-MAP's evaluation needs: a
// multi-channel, multi-rank, multi-bank organization with open-row
// buffers, FR-FCFS or FCFS scheduling, configurable bus width and the two
// address mapping schemes the paper sweeps (RoBaRaCoCh and ChRaBaRoCo).
//
// The controller is event-queued: requests are enqueued with an arrival
// cycle, each channel services its queue under the scheduling policy, and
// completions are delivered as simulated time advances. It reports the
// three Figure 7 metrics — row buffer locality, average queue length, and
// average read/write latency.
package dram

import (
	"container/heap"
	"fmt"

	"github.com/uteda/gmap/internal/obs"
)

// AddrMapping selects how a physical line address decomposes into
// channel/rank/bank/row/column fields, LSB first.
type AddrMapping int

// The two mappings evaluated in Figure 7. The names read MSB to LSB, so
// RoBaRaCoCh places the channel in the lowest bits (maximizing channel
// interleaving of consecutive lines) while ChRaBaRoCo places the column
// and row low (maximizing row locality within one channel).
const (
	RoBaRaCoCh AddrMapping = iota
	ChRaBaRoCo
)

// String returns the scheme name.
func (m AddrMapping) String() string {
	if m == ChRaBaRoCo {
		return "ChRaBaRoCo"
	}
	return "RoBaRaCoCh"
}

// SchedPolicy selects the per-channel request scheduler.
type SchedPolicy int

// Supported schedulers: first-ready FCFS (row hits first) and plain FCFS.
const (
	FRFCFS SchedPolicy = iota
	FCFS
)

// String returns "fr-fcfs" or "fcfs".
func (p SchedPolicy) String() string {
	if p == FCFS {
		return "fcfs"
	}
	return "fr-fcfs"
}

// Config describes the memory system.
type Config struct {
	// Geometry.
	Channels        int
	RanksPerChannel int
	BanksPerRank    int
	// RowBytes is the row-buffer (page) size per bank.
	RowBytes int
	// TxBytes is the request granularity — the L2 line size (128B).
	TxBytes int
	// BusBytes is the data bus width in bytes per channel; with DDR
	// signaling a transaction occupies TxBytes/(2*BusBytes) cycles.
	BusBytes int
	// Timing in memory-clock cycles (Table 2: 11-11-11-28 for GDDR3).
	TRCD, TCAS, TRP, TRAS int
	// Refresh: every TREFI cycles a channel stalls for TRFC cycles and
	// all of its row buffers close. Zero TREFI disables refresh.
	TREFI, TRFC int
	// Sched is the request scheduling policy.
	Sched SchedPolicy
	// Mapping is the address decomposition scheme.
	Mapping AddrMapping
}

// DefaultGDDR3 returns the Table 2 profiled configuration: 8 channels, 1
// rank, 8 banks, 2KB rows, 11-11-11-28, FR-FCFS, RoBaRaCoCh.
func DefaultGDDR3() Config {
	return Config{
		Channels: 8, RanksPerChannel: 1, BanksPerRank: 8,
		RowBytes: 2048, TxBytes: 128, BusBytes: 8,
		TRCD: 11, TCAS: 11, TRP: 11, TRAS: 28,
		TREFI: 9360, TRFC: 128,
		Sched: FRFCFS, Mapping: RoBaRaCoCh,
	}
}

// GDDR5 returns a GDDR5-class configuration with the given channel count,
// bus width and mapping — the Figure 7 sweep axes. Timings follow typical
// GDDR5 at 1.25GHz command clock.
func GDDR5(channels, busBytes int, mapping AddrMapping) Config {
	return Config{
		Channels: channels, RanksPerChannel: 1, BanksPerRank: 16,
		RowBytes: 2048, TxBytes: 128, BusBytes: busBytes,
		TRCD: 14, TCAS: 15, TRP: 14, TRAS: 32,
		TREFI: 9360, TRFC: 160,
		Sched: FRFCFS, Mapping: mapping,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	for _, f := range []struct {
		name string
		v    int
	}{
		{"channels", c.Channels}, {"ranks", c.RanksPerChannel},
		{"banks", c.BanksPerRank}, {"row bytes", c.RowBytes},
		{"tx bytes", c.TxBytes}, {"bus bytes", c.BusBytes},
	} {
		if f.v <= 0 || f.v&(f.v-1) != 0 {
			return fmt.Errorf("dram: %s = %d must be a positive power of two", f.name, f.v)
		}
	}
	if c.RowBytes < c.TxBytes {
		return fmt.Errorf("dram: row (%dB) smaller than transaction (%dB)", c.RowBytes, c.TxBytes)
	}
	if c.TRCD <= 0 || c.TCAS <= 0 || c.TRP <= 0 || c.TRAS <= 0 {
		return fmt.Errorf("dram: non-positive timing %d-%d-%d-%d", c.TRCD, c.TCAS, c.TRP, c.TRAS)
	}
	if c.TREFI < 0 || c.TRFC < 0 || (c.TREFI > 0 && c.TRFC <= 0) {
		return fmt.Errorf("dram: bad refresh timing tREFI=%d tRFC=%d", c.TREFI, c.TRFC)
	}
	return nil
}

// burstCycles is the data-bus occupancy of one transaction.
func (c Config) burstCycles() uint64 {
	n := c.TxBytes / (2 * c.BusBytes) // DDR: two beats per cycle
	if n < 1 {
		n = 1
	}
	return uint64(n)
}

// Coord is a decomposed address.
type Coord struct {
	Channel, Rank, Bank, Row, Col int
}

// Decompose maps a byte address to its DRAM coordinates under the
// configured mapping.
func (c Config) Decompose(addr uint64) Coord {
	line := addr / uint64(c.TxBytes)
	cols := uint64(c.RowBytes / c.TxBytes)
	ch, ra, ba := uint64(c.Channels), uint64(c.RanksPerChannel), uint64(c.BanksPerRank)
	var co Coord
	switch c.Mapping {
	case ChRaBaRoCo:
		// LSB -> MSB: column, row, bank, rank, channel.
		co.Col = int(line % cols)
		line /= cols
		co.Row = int(line % (1 << 16))
		line /= 1 << 16
		co.Bank = int(line % ba)
		line /= ba
		co.Rank = int(line % ra)
		line /= ra
		co.Channel = int(line % ch)
	default: // RoBaRaCoCh: LSB -> MSB: channel, column, rank, bank, row.
		co.Channel = int(line % ch)
		line /= ch
		co.Col = int(line % cols)
		line /= cols
		co.Rank = int(line % ra)
		line /= ra
		co.Bank = int(line % ba)
		line /= ba
		co.Row = int(line)
	}
	return co
}

// Completion reports a finished request.
type Completion struct {
	// ID echoes the caller's request identifier.
	ID uint64
	// Done is the cycle the data transfer finished.
	Done uint64
	// RowHit reports whether the request hit an open row.
	RowHit bool
	// Write echoes the request kind.
	Write bool
	// Arrival echoes the enqueue cycle (Done-Arrival is the latency).
	Arrival uint64
}

type pending struct {
	id      uint64
	addr    uint64
	write   bool
	arrival uint64
	coord   Coord
}

type bankState struct {
	openRow     int
	hasOpenRow  bool
	readyAt     uint64 // earliest next column command
	activatedAt uint64 // for tRAS
}

type completionHeap []Completion

func (h completionHeap) Len() int            { return len(h) }
func (h completionHeap) Less(i, j int) bool  { return h[i].Done < h[j].Done }
func (h completionHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *completionHeap) Push(x interface{}) { *h = append(*h, x.(Completion)) }
func (h *completionHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

type channel struct {
	queue   []pending
	banks   []bankState
	busFree uint64
	done    completionHeap
	// nextRefresh is the cycle the channel's next all-bank refresh is due.
	nextRefresh uint64
}

// Stats accumulates the Figure 7 metrics.
type Stats struct {
	Requests     uint64
	Reads        uint64
	Writes       uint64
	RowHits      uint64
	RowMisses    uint64 // closed-row activations
	RowConflicts uint64 // precharge + activate
	// Queue-length sampling: one sample per enqueue.
	queueSamples uint64
	queueSum     uint64
	// Latency accumulation.
	readLatSum  uint64
	writeLatSum uint64
	// Refreshes counts all-bank refresh operations performed.
	Refreshes uint64
}

// RowBufferLocality returns RowHits / serviced requests.
func (s Stats) RowBufferLocality() float64 {
	n := s.RowHits + s.RowMisses + s.RowConflicts
	if n == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(n)
}

// AvgQueueLen returns the mean channel-queue length observed at request
// arrival.
func (s Stats) AvgQueueLen() float64 {
	if s.queueSamples == 0 {
		return 0
	}
	return float64(s.queueSum) / float64(s.queueSamples)
}

// AvgReadLatency returns the mean arrival-to-data latency of reads, in
// memory cycles.
func (s Stats) AvgReadLatency() float64 {
	if s.Reads == 0 {
		return 0
	}
	return float64(s.readLatSum) / float64(s.Reads)
}

// AvgWriteLatency returns the mean write latency in memory cycles.
func (s Stats) AvgWriteLatency() float64 {
	if s.Writes == 0 {
		return 0
	}
	return float64(s.writeLatSum) / float64(s.Writes)
}

// Controller is the memory controller front end. It is not safe for
// concurrent use.
type Controller struct {
	cfg      Config
	channels []channel
	nextID   uint64
	inFlight int
	// Stats is exported for read-out; callers must not mutate it.
	Stats Stats
	// obs holds live observability handles; nil when detached, so the
	// instrumented scheduling path costs one predictable branch.
	obs *ctrlObs
}

// ctrlObs mirrors the controller's row-buffer and traffic activity into
// an observability registry and samples the outstanding-request depth as
// a cycle-keyed series. Pure observer: it never influences scheduling.
type ctrlObs struct {
	rowHits      *obs.Counter
	rowMisses    *obs.Counter
	rowConflicts *obs.Counter
	refreshes    *obs.Counter
	reads        *obs.Counter
	writes       *obs.Counter
	queueDepth   *obs.Sampler
	latency      *obs.Histogram // per-request arrival-to-data cycles

	// Plain hot-path tallies: the controller is driven by one goroutine,
	// so command scheduling counts here and FlushObs publishes the batch
	// to the registry handles above once per run.
	nRowHits      uint64
	nRowMisses    uint64
	nRowConflicts uint64
	nRefreshes    uint64
	nReads        uint64
	nWrites       uint64
	lat           obs.LocalHistogram
}

// AttachObs registers the controller's counters ("dram.row_hits",
// "dram.row_misses", "dram.row_conflicts", "dram.refreshes",
// "dram.reads", "dram.writes"), the "dram.queue_depth" series and the
// "dram.latency_cycles" histogram with r. A nil registry detaches.
func (c *Controller) AttachObs(r *obs.Registry) {
	if r == nil {
		c.obs = nil
		return
	}
	c.obs = &ctrlObs{
		rowHits:      r.Counter("dram.row_hits"),
		rowMisses:    r.Counter("dram.row_misses"),
		rowConflicts: r.Counter("dram.row_conflicts"),
		refreshes:    r.Counter("dram.refreshes"),
		reads:        r.Counter("dram.reads"),
		writes:       r.Counter("dram.writes"),
		queueDepth:   r.Sampler("dram.queue_depth", 0),
		latency:      r.Histogram("dram.latency_cycles"),
	}
}

// FlushObs publishes the tallies accumulated since the last flush to
// the attached registry handles. No-op when detached; callers flush once
// per run (or before reading the registry), not per command.
func (c *Controller) FlushObs() {
	o := c.obs
	if o == nil {
		return
	}
	o.rowHits.Add(o.nRowHits)
	o.rowMisses.Add(o.nRowMisses)
	o.rowConflicts.Add(o.nRowConflicts)
	o.refreshes.Add(o.nRefreshes)
	o.reads.Add(o.nReads)
	o.writes.Add(o.nWrites)
	o.nRowHits, o.nRowMisses, o.nRowConflicts = 0, 0, 0
	o.nRefreshes, o.nReads, o.nWrites = 0, 0, 0
	o.lat.FlushTo(o.latency)
}

// NewController builds a controller.
func NewController(cfg Config) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Controller{cfg: cfg, channels: make([]channel, cfg.Channels)}
	for i := range c.channels {
		c.channels[i].banks = make([]bankState, cfg.RanksPerChannel*cfg.BanksPerRank)
		c.channels[i].nextRefresh = uint64(cfg.TREFI)
	}
	return c, nil
}

// Config returns the controller's configuration.
func (c *Controller) Config() Config { return c.cfg }

// Enqueue submits a request arriving at cycle now and returns its id.
// now must not decrease from one call to the next: the scheduler takes a
// channel's earliest arrival from the head of its queue.
func (c *Controller) Enqueue(addr uint64, write bool, now uint64) uint64 {
	id := c.nextID
	c.nextID++
	coord := c.cfg.Decompose(addr)
	ch := &c.channels[coord.Channel]
	c.Stats.queueSamples++
	c.Stats.queueSum += uint64(len(ch.queue))
	c.Stats.Requests++
	if write {
		c.Stats.Writes++
	} else {
		c.Stats.Reads++
	}
	ch.queue = append(ch.queue, pending{id: id, addr: addr, write: write, arrival: now, coord: coord})
	c.inFlight++
	if c.obs != nil {
		if write {
			c.obs.nWrites++
		} else {
			c.obs.nReads++
		}
		c.obs.queueDepth.Sample(now, float64(c.inFlight))
	}
	return id
}

// InFlight returns the number of requests enqueued but not yet delivered.
func (c *Controller) InFlight() int { return c.inFlight }

// AdvanceTo services queues up to cycle now and returns the completions
// whose data finished by now, in completion order.
func (c *Controller) AdvanceTo(now uint64) []Completion {
	return c.AdvanceInto(now, nil)
}

// AdvanceInto is AdvanceTo with a caller-owned completion buffer: the
// batch is appended to buf (typically buf[:0] of a retained slice) and
// the extended slice returned, so a caller advancing the controller once
// per simulated cycle allocates nothing in steady state.
func (c *Controller) AdvanceInto(now uint64, buf []Completion) []Completion {
	for i := range c.channels {
		ch := &c.channels[i]
		for c.serviceOne(ch, now) {
		}
		for ch.done.Len() > 0 && ch.done[0].Done <= now {
			buf = append(buf, heap.Pop(&ch.done).(Completion))
			c.inFlight--
		}
	}
	return buf
}

// NextCompletion reports the earliest cycle at which a completion will
// become available, forcing minimal service (at most one request per idle
// channel) to discover it. Callers use it to jump simulated time when the
// system is otherwise blocked; in that state no new arrivals can precede
// the returned cycle, so the forced service order is exactly what a
// cycle-by-cycle advance would produce. ok is false when nothing is
// outstanding.
func (c *Controller) NextCompletion() (uint64, bool) {
	best := ^uint64(0)
	ok := false
	for i := range c.channels {
		ch := &c.channels[i]
		if ch.done.Len() == 0 && len(ch.queue) > 0 {
			c.serviceOne(ch, ^uint64(0)>>1)
		}
		if ch.done.Len() > 0 && ch.done[0].Done < best {
			best = ch.done[0].Done
			ok = true
		}
	}
	return best, ok
}

// Drain services everything outstanding and returns all remaining
// completions.
func (c *Controller) Drain() []Completion {
	return c.AdvanceTo(^uint64(0) >> 1)
}

// serviceOne issues at most one request on a channel; it returns false
// when nothing can be scheduled at or before now.
func (c *Controller) serviceOne(ch *channel, now uint64) bool {
	// The decision time below is never before busFree, so a busy bus
	// (the common case when polled every cycle) rules out any service.
	if len(ch.queue) == 0 || ch.busFree > now {
		return false
	}
	// Scheduling decision time: the bus must be free and at least one
	// request must have arrived. Arrivals are enqueued in non-decreasing
	// order and removal keeps order, so the head arrived first.
	earliest := ch.queue[0].arrival
	t := ch.busFree
	if earliest > t {
		t = earliest
	}
	if t > now {
		return false
	}
	// All-bank refresh: when due, the channel stalls for tRFC and every
	// row buffer closes before the next request is scheduled.
	if c.cfg.TREFI > 0 {
		for t >= ch.nextRefresh {
			end := ch.nextRefresh + uint64(c.cfg.TRFC)
			for bi := range ch.banks {
				ch.banks[bi].hasOpenRow = false
				if ch.banks[bi].readyAt < end {
					ch.banks[bi].readyAt = end
				}
			}
			if ch.busFree < end {
				ch.busFree = end
			}
			ch.nextRefresh += uint64(c.cfg.TREFI)
			c.Stats.Refreshes++
			if c.obs != nil {
				c.obs.nRefreshes++
			}
		}
		if ch.busFree > t {
			t = ch.busFree
		}
		if t > now {
			return false
		}
	}
	// Candidate set: requests that have arrived by t, in queue (FCFS)
	// order. FR-FCFS picks the first row hit; FCFS the oldest.
	pick := -1
	if c.cfg.Sched == FRFCFS {
		for i, p := range ch.queue {
			if p.arrival > t {
				continue
			}
			b := &ch.banks[p.coord.Rank*c.cfg.BanksPerRank+p.coord.Bank]
			if b.hasOpenRow && b.openRow == p.coord.Row {
				pick = i
				break
			}
		}
	}
	if pick < 0 {
		for i, p := range ch.queue {
			if p.arrival <= t {
				pick = i
				break
			}
		}
	}
	if pick < 0 {
		return false
	}
	p := ch.queue[pick]
	ch.queue = append(ch.queue[:pick], ch.queue[pick+1:]...)

	b := &ch.banks[p.coord.Rank*c.cfg.BanksPerRank+p.coord.Bank]
	start := t
	if b.readyAt > start {
		start = b.readyAt
	}
	var dataStart uint64
	var rowHit bool
	switch {
	case b.hasOpenRow && b.openRow == p.coord.Row:
		rowHit = true
		c.Stats.RowHits++
		if c.obs != nil {
			c.obs.nRowHits++
		}
		dataStart = start + uint64(c.cfg.TCAS)
	case !b.hasOpenRow:
		c.Stats.RowMisses++
		if c.obs != nil {
			c.obs.nRowMisses++
		}
		dataStart = start + uint64(c.cfg.TRCD+c.cfg.TCAS)
		b.activatedAt = start
	default:
		c.Stats.RowConflicts++
		if c.obs != nil {
			c.obs.nRowConflicts++
		}
		// Precharge may not begin before tRAS from the last activate.
		pre := start
		if min := b.activatedAt + uint64(c.cfg.TRAS); min > pre {
			pre = min
		}
		actAt := pre + uint64(c.cfg.TRP)
		dataStart = actAt + uint64(c.cfg.TRCD+c.cfg.TCAS)
		b.activatedAt = actAt
	}
	b.openRow, b.hasOpenRow = p.coord.Row, true

	burst := c.cfg.burstCycles()
	// Data bus occupied for the burst; serialize bursts on the channel.
	if dataStart < ch.busFree {
		dataStart = ch.busFree
	}
	done := dataStart + burst
	ch.busFree = done
	b.readyAt = dataStart

	lat := done - p.arrival
	if p.write {
		c.Stats.writeLatSum += lat
	} else {
		c.Stats.readLatSum += lat
	}
	if c.obs != nil {
		c.obs.lat.Observe(lat)
	}
	heap.Push(&ch.done, Completion{ID: p.id, Done: done, RowHit: rowHit, Write: p.write, Arrival: p.arrival})
	return true
}

// Reset clears all state and statistics.
func (c *Controller) Reset() {
	for i := range c.channels {
		c.channels[i] = channel{
			banks:       make([]bankState, c.cfg.RanksPerChannel*c.cfg.BanksPerRank),
			nextRefresh: uint64(c.cfg.TREFI),
		}
	}
	c.nextID = 0
	c.inFlight = 0
	c.Stats = Stats{}
}
