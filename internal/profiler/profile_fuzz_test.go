// Fuzzing for the profile (de)serialization path. External test package
// so the proptest generators (which import profiler) can seed the corpus.
package profiler_test

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"testing"

	"github.com/uteda/gmap/internal/profiler"
	"github.com/uteda/gmap/internal/proptest"
	"github.com/uteda/gmap/internal/stats"
	"github.com/uteda/gmap/internal/trace"
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

// refProfile and its parts are the profile types as encoding/json
// encoded them before the profile had a direct encoder, with each
// histogram as the string-keyed map whose encoding Histogram.MarshalJSON
// reproduces. encoding/json over them is the reference the direct
// encoder must equal byte for byte.
type refProfile struct {
	Name          string    `json:"name"`
	GridDim       int       `json:"grid_dim"`
	BlockDim      int       `json:"block_dim"`
	LineSize      uint64    `json:"line_size"`
	Warps         int       `json:"warps"`
	TotalRequests uint64    `json:"total_requests"`
	Insts         []refInst `json:"insts"`
	Profiles      []refPi   `json:"profiles"`
	SchedPself    float64   `json:"sched_p_self"`
}

type refInst struct {
	PC            uint64                      `json:"pc"`
	Kind          trace.Kind                  `json:"kind"`
	Base          uint64                      `json:"base"`
	InterStride   map[string]uint64           `json:"inter_stride"`
	IntraStride   map[string]uint64           `json:"intra_stride"`
	Count         uint64                      `json:"count"`
	OffLo         int64                       `json:"off_lo"`
	OffHi         int64                       `json:"off_hi"`
	AnchorLo      int64                       `json:"anchor_lo"`
	AnchorHi      int64                       `json:"anchor_hi"`
	Runs          map[int64]map[string]uint64 `json:"runs,omitempty"`
	Deterministic bool                        `json:"deterministic"`
}

type refPi struct {
	Seq   []int             `json:"seq"`
	Count uint64            `json:"count"`
	Reuse map[string]uint64 `json:"reuse"`
}

// refHist is h as a string-keyed map; nil stays nil.
func refHist(h *stats.Histogram) map[string]uint64 {
	if h == nil {
		return nil
	}
	m := make(map[string]uint64, h.Len())
	for _, k := range h.Keys() {
		m[strconv.FormatInt(k, 10)] = h.Count(k)
	}
	return m
}

// reference copies p into the reference types, keeping nil slices and
// maps nil and empty ones empty.
func reference(p *profiler.Profile) *refProfile {
	r := &refProfile{
		Name: p.Name, GridDim: p.GridDim, BlockDim: p.BlockDim, LineSize: p.LineSize,
		Warps: p.Warps, TotalRequests: p.TotalRequests, SchedPself: p.SchedPself,
	}
	if p.Insts != nil {
		r.Insts = make([]refInst, len(p.Insts))
	}
	for i, in := range p.Insts {
		ri := refInst{
			PC: in.PC, Kind: in.Kind, Base: in.Base, Count: in.Count,
			InterStride: refHist(in.InterStride), IntraStride: refHist(in.IntraStride),
			OffLo: in.OffLo, OffHi: in.OffHi, AnchorLo: in.AnchorLo, AnchorHi: in.AnchorHi,
			Deterministic: in.Deterministic,
		}
		if in.Runs != nil {
			ri.Runs = make(map[int64]map[string]uint64, len(in.Runs))
		}
		for k, h := range in.Runs {
			ri.Runs[k] = refHist(h)
		}
		r.Insts[i] = ri
	}
	if p.Profiles != nil {
		r.Profiles = make([]refPi, len(p.Profiles))
	}
	for i, pp := range p.Profiles {
		r.Profiles[i] = refPi{Seq: pp.Seq, Count: pp.Count, Reuse: refHist(pp.Reuse)}
	}
	return r
}

// FuzzWriteJSONMatchesEncodingJSON holds the direct encoder to
// encoding/json: for every profile encoding/json decodes (what ReadJSON
// reads before it validates), with the name and sched_p_self the fuzzer
// picks, WriteJSON must write what an Encoder with SetIndent("", " ")
// writes for the reference types, and MarshalJSON and json.Marshal what
// json.Marshal writes for them. Where encoding/json fails (a NaN or
// infinite sched_p_self), every encoder must fail.
func FuzzWriteJSONMatchesEncodingJSON(f *testing.F) {
	for seed := uint64(1); seed <= 3; seed++ {
		p := proptest.New(seed).Profile()
		var buf bytes.Buffer
		if err := p.WriteJSON(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes(), p.Name, p.SchedPself)
	}
	shapes := []string{
		`{"insts":null,"profiles":null}`,
		`{"insts":[],"profiles":[]}`,
		`{"insts":[{"pc":1,"inter_stride":null,"intra_stride":{},"runs":{}}],"profiles":[{"seq":null,"reuse":null}]}`,
		`{"insts":[{"inter_stride":{"-1":2,"-10":1,"3":4},"intra_stride":{"-9223372036854775808":1},` +
			`"runs":{"-5":{"2":1},"10":null,"-50":{},"9223372036854775807":{"-3":0}}}],` +
			`"profiles":[{"seq":[],"count":3,"reuse":{"-1":7}},{"seq":[0,-2],"reuse":{}}]}`,
		`{"name":"k","grid_dim":-3,"block_dim":32,"line_size":18446744073709551615,"warps":-1,` +
			`"insts":[{"pc":4096,"kind":2,"base":1,"count":9,"off_lo":-128,"off_hi":256,"anchor_lo":-1,"anchor_hi":0,"deterministic":true}]}`,
	}
	names := []string{"", "x", "<a&b>", "\u2028\u2029", "\xff\xfe\x80", "tab\tnl\nq\"bs\\\x00\x1f\x7f", "é漢"}
	pselfs := []float64{0, 0.5, 1, 1e-7, 1e-6, 1e21, 123456789.25, math.Copysign(0, -1), 5e-324,
		math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1)}
	for i, shape := range shapes {
		for j, name := range names {
			f.Add([]byte(shape), name, pselfs[(i*len(names)+j)%len(pselfs)])
		}
	}
	for _, pself := range pselfs {
		f.Add([]byte(shapes[3]), "x", pself)
	}

	f.Fuzz(func(t *testing.T, data []byte, name string, pself float64) {
		var p profiler.Profile
		if err := json.Unmarshal(data, &p); err != nil {
			return
		}
		p.Name, p.SchedPself = name, pself
		ref := reference(&p)

		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		enc.SetIndent("", " ")
		wantErr := enc.Encode(ref)
		var got bytes.Buffer
		gotErr := p.WriteJSON(&got)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("WriteJSON err = %v, encoding/json err = %v", gotErr, wantErr)
		}
		if wantErr == nil && !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("WriteJSON differs from encoding/json:\n got: %q\nwant: %q", got.Bytes(), want.Bytes())
		}

		wantC, wantErr := json.Marshal(ref)
		for _, enc := range []struct {
			name   string
			encode func() ([]byte, error)
		}{
			{"MarshalJSON", p.MarshalJSON},
			{"json.Marshal", func() ([]byte, error) { return json.Marshal(&p) }},
		} {
			gotC, gotErr := enc.encode()
			if (gotErr != nil) != (wantErr != nil) {
				t.Fatalf("%s err = %v, encoding/json err = %v", enc.name, gotErr, wantErr)
			}
			if wantErr == nil && !bytes.Equal(gotC, wantC) {
				t.Fatalf("%s differs from encoding/json:\n got: %q\nwant: %q", enc.name, gotC, wantC)
			}
		}
	})
}
