package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"github.com/uteda/gmap/internal/profiler"
)

// pinnedOrigDigest is each workload's orig_digest over its default
// benchmark set. The original side of every result (simulated originals,
// profiles, Table 1 rows) does not depend on the seed or the worker
// count, so any change to these values is a change in what the program
// computes, not in how fast it computes it. Refresh a value only with a
// change that means to alter the model.
var pinnedOrigDigest = map[string]string{
	"fig6a-l1":     "515a7239b143655084906d88",
	"l2-dram":      "a33a8534a2e4738c5bfb9132",
	"clone":        "6eaa29b0c55f70caab815477",
	"large-kernel": "8342fd339092abdc3b287c74",
}

// digest summarizes a set of results independent of the order they were
// produced in: records are sorted before hashing, so a parallel sweep
// that completes points in any order gives the same digest as a serial
// one. Profiles are kept per benchmark; a benchmark profiled twice must
// give the same profile both times.
type digest struct {
	recs     []string
	profiles map[string]string
}

// value records one named result of an experiment as its JSON text, the
// form eval's checkpoint payloads carry it in.
func (d *digest) value(exp, field string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("digest %s %s: %w", exp, field, err)
	}
	d.raw(exp, field, b)
	return nil
}

func (d *digest) raw(exp, field string, b []byte) {
	d.recs = append(d.recs, exp+" "+field+" "+string(b))
}

func (d *digest) row(exp string, v any) {
	d.recs = append(d.recs, fmt.Sprintf("%s %+v", exp, v))
}

// profile records a benchmark's statistical profile by the hash of its
// JSON encoding.
func (d *digest) profile(p *profiler.Profile) error {
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		return fmt.Errorf("digest profile %s: %w", p.Name, err)
	}
	sum := sha256.Sum256(buf.Bytes())
	h := hex.EncodeToString(sum[:])
	if d.profiles == nil {
		d.profiles = make(map[string]string)
	}
	if old, ok := d.profiles[p.Name]; ok && old != h {
		return fmt.Errorf("digest profile %s: two profiles of one benchmark differ", p.Name)
	}
	d.profiles[p.Name] = h
	return nil
}

func (d *digest) sum() string {
	recs := append([]string(nil), d.recs...)
	for name, h := range d.profiles {
		recs = append(recs, "profile "+name+" "+h)
	}
	sort.Strings(recs)
	h := sha256.New()
	for _, r := range recs {
		h.Write([]byte(r))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}
