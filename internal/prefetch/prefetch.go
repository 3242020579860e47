// Package prefetch implements the two hardware prefetchers the paper
// evaluates proxies against: a many-thread-aware per-PC stride prefetcher
// attached to the L1 (after Lee et al., MICRO 2010 [12]) and a stream
// prefetcher attached to the L2 (§5, "L2 cache and prefetcher
// configurations": stream window 8/16/32, degree 1/2/4/8).
package prefetch

import (
	"fmt"

	"github.com/uteda/gmap/internal/rng"
)

// Prefetcher observes the demand stream of a cache and proposes lines to
// fill. Addresses are line-aligned. warp carries the issuing warp so
// thread-aware schemes can keep per-warp state; schemes that do not need
// it ignore it.
type Prefetcher interface {
	// Observe is called for every demand access; it returns the line
	// addresses to prefetch (possibly none).
	Observe(pc uint64, warp int, lineAddr uint64, miss bool) []uint64
}

// Nil is a no-op prefetcher for baseline configurations.
type Nil struct{}

// Observe implements Prefetcher; it never prefetches.
func (Nil) Observe(uint64, int, uint64, bool) []uint64 { return nil }

// StrideConfig parameterizes the per-PC stride prefetcher.
type StrideConfig struct {
	// TableSize is the number of tracking entries (power of two).
	TableSize int
	// Degree is how many consecutive strided lines to prefetch per
	// trigger.
	Degree int
	// MinConfidence is how many consecutive identical strides must be
	// seen before prefetching begins (>= 1).
	MinConfidence int
	// PerWarp keys the table by (PC, warp) instead of PC alone — the
	// "many-thread aware" variant of [12] that avoids cross-warp stride
	// pollution.
	PerWarp bool
}

// Validate checks the configuration.
func (c StrideConfig) Validate() error {
	if c.TableSize <= 0 || c.TableSize&(c.TableSize-1) != 0 {
		return fmt.Errorf("prefetch: stride table size %d not a power of two", c.TableSize)
	}
	if c.Degree <= 0 {
		return fmt.Errorf("prefetch: stride degree %d", c.Degree)
	}
	if c.MinConfidence < 1 {
		return fmt.Errorf("prefetch: min confidence %d", c.MinConfidence)
	}
	return nil
}

// DefaultStrideConfig returns a 64-entry, degree-2, per-warp configuration.
func DefaultStrideConfig() StrideConfig {
	return StrideConfig{TableSize: 64, Degree: 2, MinConfidence: 2, PerWarp: true}
}

type strideEntry struct {
	key        uint64
	valid      bool
	lastLine   uint64
	stride     int64
	confidence int
}

// Stride is the per-PC (optionally per-warp) stride prefetcher.
type Stride struct {
	cfg   StrideConfig
	table []strideEntry
	buf   []uint64
}

// NewStride builds a stride prefetcher.
func NewStride(cfg StrideConfig) (*Stride, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Stride{cfg: cfg, table: make([]strideEntry, cfg.TableSize)}, nil
}

func (s *Stride) keyOf(pc uint64, warp int) uint64 {
	if s.cfg.PerWarp {
		return rng.Mix64(pc ^ uint64(warp)<<40)
	}
	return rng.Mix64(pc)
}

// Observe trains on every access and triggers degree-deep prefetches once
// a PC's stride is confident.
func (s *Stride) Observe(pc uint64, warp int, lineAddr uint64, _ bool) []uint64 {
	key := s.keyOf(pc, warp)
	e := &s.table[key&uint64(len(s.table)-1)]
	if !e.valid || e.key != key {
		*e = strideEntry{key: key, valid: true, lastLine: lineAddr}
		return nil
	}
	stride := int64(lineAddr) - int64(e.lastLine)
	e.lastLine = lineAddr
	if stride == 0 {
		return nil
	}
	if stride == e.stride {
		if e.confidence < 1<<20 {
			e.confidence++
		}
	} else {
		e.stride = stride
		e.confidence = 1
		return nil
	}
	if e.confidence < s.cfg.MinConfidence {
		return nil
	}
	s.buf = s.buf[:0]
	next := int64(lineAddr)
	for d := 0; d < s.cfg.Degree; d++ {
		next += stride
		if next < 0 {
			break
		}
		s.buf = append(s.buf, uint64(next))
	}
	return s.buf
}

// StreamConfig parameterizes the L2 stream prefetcher.
type StreamConfig struct {
	// Streams is the number of concurrently tracked streams.
	Streams int
	// Window is how far (in lines) an access may land from a stream's
	// head and still be considered part of it — the paper sweeps 8/16/32.
	Window int
	// Degree is how many lines ahead to prefetch per advance — the paper
	// sweeps 1/2/4/8.
	Degree int
	// LineSize is the line granularity in bytes.
	LineSize uint64
}

// Validate checks the configuration.
func (c StreamConfig) Validate() error {
	if c.Streams <= 0 {
		return fmt.Errorf("prefetch: %d streams", c.Streams)
	}
	if c.Window <= 0 || c.Degree <= 0 {
		return fmt.Errorf("prefetch: stream window %d / degree %d", c.Window, c.Degree)
	}
	if c.LineSize == 0 || c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("prefetch: stream line size %d", c.LineSize)
	}
	return nil
}

// DefaultStreamConfig returns 16 streams, window 16, degree 2, 128B lines.
func DefaultStreamConfig() StreamConfig {
	return StreamConfig{Streams: 16, Window: 16, Degree: 2, LineSize: 128}
}

type stream struct {
	valid    bool
	head     int64 // line number of the stream head
	dir      int64 // +1 or -1
	lastUsed uint64
}

// Stream is the L2 stream prefetcher: it detects unit-direction line
// streams (within a window) and runs ahead of them by Degree lines.
type Stream struct {
	cfg     StreamConfig
	streams []stream
	tick    uint64
	buf     []uint64
}

// NewStream builds a stream prefetcher.
func NewStream(cfg StreamConfig) (*Stream, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Stream{cfg: cfg, streams: make([]stream, cfg.Streams)}, nil
}

// Observe trains on misses only (streams are a miss-driven mechanism) and
// prefetches Degree lines ahead of a matched stream.
func (s *Stream) Observe(_ uint64, _ int, lineAddr uint64, miss bool) []uint64 {
	if !miss {
		return nil
	}
	s.tick++
	ln := int64(lineAddr / s.cfg.LineSize)
	// Match an existing stream whose head is within the window.
	for i := range s.streams {
		st := &s.streams[i]
		if !st.valid {
			continue
		}
		delta := ln - st.head
		if delta == 0 {
			st.lastUsed = s.tick
			return nil
		}
		if (st.dir > 0 && delta > 0 && delta <= int64(s.cfg.Window)) ||
			(st.dir < 0 && delta < 0 && -delta <= int64(s.cfg.Window)) {
			st.head = ln
			st.lastUsed = s.tick
			s.buf = s.buf[:0]
			for d := 1; d <= s.cfg.Degree; d++ {
				next := ln + st.dir*int64(d)
				if next < 0 {
					break
				}
				s.buf = append(s.buf, uint64(next)*s.cfg.LineSize)
			}
			return s.buf
		}
	}
	// Second pass: a direction-less accessor close to an existing head
	// establishes direction.
	for i := range s.streams {
		st := &s.streams[i]
		if !st.valid || st.dir != 0 {
			continue
		}
		delta := ln - st.head
		if delta != 0 && delta >= -int64(s.cfg.Window) && delta <= int64(s.cfg.Window) {
			if delta > 0 {
				st.dir = 1
			} else {
				st.dir = -1
			}
			st.head = ln
			st.lastUsed = s.tick
			return nil
		}
	}
	// Allocate a new (direction-less) stream, replacing the LRU one.
	victim := 0
	oldest := s.streams[0].lastUsed
	for i := range s.streams {
		if !s.streams[i].valid {
			victim = i
			break
		}
		if s.streams[i].lastUsed < oldest {
			victim, oldest = i, s.streams[i].lastUsed
		}
	}
	s.streams[victim] = stream{valid: true, head: ln, lastUsed: s.tick}
	return nil
}
