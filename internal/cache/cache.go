// Package cache implements the set-associative cache model used for both
// levels of the simulated GPU memory hierarchy. It is the CMP$im-style
// component of the paper's validation simulator: demand accesses, optional
// prefetch fills with usefulness tracking, write-back/write-allocate
// semantics with dirty-victim reporting, LRU replacement, and an
// address-interleaved banked wrapper for the shared L2. The MSHR file
// that bounds a core's outstanding misses lives with the flights it
// tracks, in internal/memsim.
package cache

import (
	"fmt"
	"math/bits"
)

// WritePolicy selects how stores interact with the cache.
type WritePolicy int

// Supported write policies.
const (
	// WriteBackAllocate (the default) allocates on write misses and marks
	// written lines dirty; victims report EvictedDirty for write-back.
	WriteBackAllocate WritePolicy = iota
	// WriteThroughNoAllocate propagates every store below immediately
	// (Result.WroteThrough) and does not allocate on write misses — the
	// policy of Fermi's L1 for global stores.
	WriteThroughNoAllocate
)

// String returns "write-back" or "write-through".
func (p WritePolicy) String() string {
	if p == WriteThroughNoAllocate {
		return "write-through"
	}
	return "write-back"
}

// Config describes one cache.
type Config struct {
	// SizeBytes is the total capacity; it must equal Sets*Ways*LineSize
	// with a power-of-two set count.
	SizeBytes int
	// Ways is the associativity.
	Ways int
	// LineSize is the block size in bytes (power of two).
	LineSize int
	// Writes is the write policy (default write-back write-allocate).
	Writes WritePolicy
}

// Validate checks the configuration and returns the derived set count.
func (c Config) Validate() (sets int, err error) {
	if c.LineSize <= 0 || c.LineSize&(c.LineSize-1) != 0 {
		return 0, fmt.Errorf("cache: line size %d not a positive power of two", c.LineSize)
	}
	if c.Ways <= 0 {
		return 0, fmt.Errorf("cache: associativity %d", c.Ways)
	}
	if c.SizeBytes <= 0 || c.SizeBytes%(c.Ways*c.LineSize) != 0 {
		return 0, fmt.Errorf("cache: size %d not divisible by ways*line = %d", c.SizeBytes, c.Ways*c.LineSize)
	}
	sets = c.SizeBytes / (c.Ways * c.LineSize)
	if sets&(sets-1) != 0 {
		return 0, fmt.Errorf("cache: derived set count %d not a power of two", sets)
	}
	return sets, nil
}

// String renders the geometry, e.g. "16KB 4-way 128B".
func (c Config) String() string {
	return fmt.Sprintf("%dKB %d-way %dB", c.SizeBytes/1024, c.Ways, c.LineSize)
}

// Stats accumulates cache activity.
type Stats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Reads      uint64
	Writes     uint64
	Evictions  uint64
	Writebacks uint64
	// PrefetchFills counts lines installed by a prefetcher;
	// PrefetchUseful counts demand hits on such lines before eviction;
	// PrefetchLate is unused by Cache itself but aggregated by hierarchies.
	PrefetchFills  uint64
	PrefetchUseful uint64
}

// MissRate returns Misses/Accesses, or 0 for an idle cache.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// PrefetchAccuracy returns PrefetchUseful/PrefetchFills, or 0.
func (s Stats) PrefetchAccuracy() float64 {
	if s.PrefetchFills == 0 {
		return 0
	}
	return float64(s.PrefetchUseful) / float64(s.PrefetchFills)
}

// Add accumulates other into s (used to merge per-bank stats).
func (s *Stats) Add(other Stats) {
	s.Accesses += other.Accesses
	s.Hits += other.Hits
	s.Misses += other.Misses
	s.Reads += other.Reads
	s.Writes += other.Writes
	s.Evictions += other.Evictions
	s.Writebacks += other.Writebacks
	s.PrefetchFills += other.PrefetchFills
	s.PrefetchUseful += other.PrefetchUseful
}

// Result reports the outcome of one access or fill.
type Result struct {
	// Hit is true when the line was present.
	Hit bool
	// WroteThrough is true when a store must be propagated to the next
	// level immediately (write-through policy).
	WroteThrough bool
	// PrefetchHit is true when the hit consumed a prefetched line for the
	// first time.
	PrefetchHit bool
	// Evicted reports a victim was displaced; EvictedAddr is its line
	// address and EvictedDirty whether it needs writing back.
	Evicted      bool
	EvictedAddr  uint64
	EvictedDirty bool
}

// Line flags, one byte per way.
const (
	flagDirty    uint8 = 1 << iota
	flagPrefetch       // installed by a prefetcher, no demand hit yet
)

// Cache is a single set-associative LRU cache. It is not safe for
// concurrent use; the simulator drives each cache from one goroutine.
//
// The lines live in set-major columns: way w of set i sits at index
// i*ways+w of tags, lastUse and flags, so a lookup scans one set's tags.
// A way is valid exactly when its lastUse is not 0 (DESIGN.md §12): every
// Access and Fill advances tick before it stamps a line, and stamps at
// most one, so valid ways hold distinct stamps of at least 1.
type Cache struct {
	cfg      Config
	tags     []uint64
	lastUse  []uint64
	flags    []uint8
	setMask  uint64
	setBits  uint
	lineBits uint
	tick     uint64
	// Stats is exported for read-out; callers must not mutate it.
	Stats Stats
}

// New builds a cache from cfg.
func New(cfg Config) (*Cache, error) {
	nSets, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	n := nSets * cfg.Ways
	return &Cache{
		cfg:      cfg,
		tags:     make([]uint64, n),
		lastUse:  make([]uint64, n),
		flags:    make([]uint8, n),
		setMask:  uint64(nSets - 1),
		setBits:  uint(bits.TrailingZeros(uint(nSets))),
		lineBits: uint(bits.TrailingZeros(uint(cfg.LineSize))),
	}, nil
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// LineAddr returns addr aligned down to the cache's line size.
func (c *Cache) LineAddr(addr uint64) uint64 { return addr >> c.lineBits << c.lineBits }

// locate returns the index of addr's set's first way and addr's tag.
func (c *Cache) locate(addr uint64) (base int, tag uint64) {
	line := addr >> c.lineBits
	return int(line&c.setMask) * c.cfg.Ways, line >> c.setBits
}

// find returns the index of the valid way holding tag in the set at
// base, or -1.
func (c *Cache) find(base int, tag uint64) int {
	for w, t := range c.tags[base : base+c.cfg.Ways] {
		if t == tag && c.lastUse[base+w] != 0 {
			return base + w
		}
	}
	return -1
}

// Access performs a demand access: on hit it updates recency; on miss it
// fills the line, possibly evicting a victim. write marks the line dirty.
func (c *Cache) Access(addr uint64, write bool) Result {
	c.tick++
	c.Stats.Accesses++
	if write {
		c.Stats.Writes++
	} else {
		c.Stats.Reads++
	}
	base, tag := c.locate(addr)
	writeThrough := c.cfg.Writes == WriteThroughNoAllocate
	if i := c.find(base, tag); i >= 0 {
		c.Stats.Hits++
		res := Result{Hit: true}
		if c.flags[i]&flagPrefetch != 0 {
			c.flags[i] &^= flagPrefetch
			c.Stats.PrefetchUseful++
			res.PrefetchHit = true
		}
		c.lastUse[i] = c.tick
		if write {
			if writeThrough {
				res.WroteThrough = true
				c.Stats.Writebacks++
			} else {
				c.flags[i] |= flagDirty
			}
		}
		return res
	}
	c.Stats.Misses++
	if write && writeThrough {
		// No-allocate: the store bypasses the cache entirely.
		c.Stats.Writebacks++
		return Result{WroteThrough: true}
	}
	var fl uint8
	if write {
		fl = flagDirty
	}
	return c.install(base, tag, addr, fl)
}

// Probe reports whether addr is present without touching recency or
// statistics. Prefetchers use it to filter redundant fills.
func (c *Cache) Probe(addr uint64) bool {
	base, tag := c.locate(addr)
	return c.find(base, tag) >= 0
}

// Fill installs addr as a prefetched line. It is a no-op (returning a hit)
// when the line is already present.
func (c *Cache) Fill(addr uint64) Result {
	c.tick++
	base, tag := c.locate(addr)
	if c.find(base, tag) >= 0 {
		return Result{Hit: true}
	}
	c.Stats.PrefetchFills++
	return c.install(base, tag, addr, flagPrefetch)
}

// install places addr's line, with tag, in the set at base over its
// victim: the first way with the smallest lastUse, which is the first
// invalid way if there is one (lastUse 0) and otherwise the least
// recently used.
func (c *Cache) install(base int, tag, addr uint64, fl uint8) Result {
	set := c.lastUse[base : base+c.cfg.Ways]
	w := 0
	for i := 1; i < len(set); i++ {
		if set[i] < set[w] {
			w = i
		}
	}
	v := base + w
	var res Result
	if set[w] != 0 {
		c.Stats.Evictions++
		res.Evicted = true
		// The victim shares addr's set.
		res.EvictedAddr = (c.tags[v]<<c.setBits | addr>>c.lineBits&c.setMask) << c.lineBits
		res.EvictedDirty = c.flags[v]&flagDirty != 0
		if res.EvictedDirty {
			c.Stats.Writebacks++
		}
	}
	c.tags[v], c.lastUse[v], c.flags[v] = tag, c.tick, fl
	return res
}
