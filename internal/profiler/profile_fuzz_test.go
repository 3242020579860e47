// Fuzzing for the profile (de)serialization path. External test package
// so the proptest generators (which import profiler) can seed the corpus.
package profiler_test

import (
	"bytes"
	"testing"

	"github.com/uteda/gmap/internal/profiler"
	"github.com/uteda/gmap/internal/proptest"
	"github.com/uteda/gmap/internal/stats"
)

// histograms returns every histogram of p.
func histograms(p *profiler.Profile) []*stats.Histogram {
	var hs []*stats.Histogram
	for _, inst := range p.Insts {
		hs = append(hs, inst.InterStride, inst.IntraStride)
		for _, h := range inst.Runs {
			hs = append(hs, h)
		}
	}
	for _, pp := range p.Profiles {
		hs = append(hs, pp.Reuse)
	}
	return hs
}

// FuzzReadJSON feeds arbitrary bytes to the profile decoder. Any input
// must either be rejected or produce a profile that passes Validate,
// whose every histogram totals its counts, and whose re-encoding reads
// back and re-encodes to the same bytes; the decoder must never panic.
func FuzzReadJSON(f *testing.F) {
	for seed := uint64(1); seed <= 3; seed++ {
		var buf bytes.Buffer
		if err := proptest.New(seed).Profile().WriteJSON(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("{}"))
	f.Add([]byte(`{"name":"x","grid_dim":-1}`))
	f.Add([]byte(`not json`))
	// Probability and window corruption: each must be rejected by
	// Validate, not propagate into the generator.
	f.Add([]byte(`{"name":"x","grid_dim":1,"block_dim":32,"line_size":128,"sched_p_self":1.5}`))
	f.Add([]byte(`{"name":"x","grid_dim":1,"block_dim":32,"line_size":128,"sched_p_self":-0.1}`))
	f.Add([]byte(`{"name":"x","grid_dim":1,"block_dim":32,"line_size":128,"insts":[{"pc":1,"off_lo":5,"off_hi":-5}]}`))
	f.Add([]byte(`{"name":"x","grid_dim":1,"block_dim":32,"line_size":128,"warps":-1}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := profiler.ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		// ReadJSON validates, so anything accepted must be structurally
		// sound and must round-trip.
		if err := p.Validate(); err != nil {
			t.Fatalf("accepted profile fails Validate: %v", err)
		}
		for _, h := range histograms(p) {
			var sum uint64
			for _, k := range h.Keys() {
				sum += h.Count(k)
			}
			if sum != h.Total() {
				t.Fatalf("histogram %v totals %d, its counts sum to %d", h, h.Total(), sum)
			}
		}
		var buf bytes.Buffer
		if err := p.WriteJSON(&buf); err != nil {
			t.Fatalf("re-encode of accepted profile failed: %v", err)
		}
		first := append([]byte(nil), buf.Bytes()...)
		p2, err := profiler.ReadJSON(&buf)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if p2.Name != p.Name || p2.Warps != p.Warps || p2.TotalRequests != p.TotalRequests ||
			len(p2.Insts) != len(p.Insts) || len(p2.Profiles) != len(p.Profiles) {
			t.Fatalf("round trip changed shape: %+v vs %+v", p2, p)
		}
		buf.Reset()
		if err := p2.WriteJSON(&buf); err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), first) {
			t.Fatalf("re-encodes differ:\n%s\n%s", first, buf.Bytes())
		}
	})
}
