package stats

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// referenceDecode is the histogram decoder the direct one replaced:
// encoding/json into a string-keyed map, then strconv.ParseInt per key.
// Aliased keys such as "1" and "01" make its result depend on map
// order, so it is a reference only for inputs the direct decoder accepts.
func referenceDecode(data []byte) (map[int64]uint64, uint64, error) {
	var m map[string]uint64
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, 0, err
	}
	counts := make(map[int64]uint64, len(m))
	var total uint64
	for ks, v := range m {
		k, err := strconv.ParseInt(ks, 10, 64)
		if err != nil {
			return nil, 0, err
		}
		counts[k] = v
		total += v
	}
	return counts, total, nil
}

// stringKeyed is h as the string-keyed map whose json.Marshal bytes
// MarshalJSON must reproduce.
func stringKeyed(h *Histogram) map[string]uint64 {
	m := make(map[string]uint64, h.Len())
	for _, k := range h.Keys() {
		m[strconv.FormatInt(k, 10)] = h.Count(k)
	}
	return m
}

// sameCounts reports whether h holds exactly the keys and counts of want.
func sameCounts(h *Histogram, want map[int64]uint64) bool {
	if h.Len() != len(want) {
		return false
	}
	for _, k := range h.Keys() {
		if c, ok := want[k]; !ok || c != h.Count(k) {
			return false
		}
	}
	return true
}

// histogramFrom builds a histogram from fuzz input, nine bytes an entry:
// a selector byte, then a 64-bit value. The selector's low bits pick
// math.MinInt64, math.MaxInt64 or the value shifted right by a
// value-chosen amount, so keys of every decimal length and sign occur;
// its high bits are the count.
func histogramFrom(data []byte) *Histogram {
	h := NewHistogram()
	for ; len(data) >= 9; data = data[9:] {
		sel := data[0]
		v := int64(binary.LittleEndian.Uint64(data[1:9]))
		k := v >> (uint64(v) % 64)
		switch sel % 4 {
		case 0:
			k = math.MinInt64
		case 1:
			k = math.MaxInt64
		}
		h.AddN(k, uint64(sel>>2))
	}
	return h
}

// TestHistogramMarshalOrdersKeysAsText pins the key order at the cases
// where text and numeric order disagree: a key whose digits are a prefix
// of another's, keys of different lengths, and the int64 extremes.
func TestHistogramMarshalOrdersKeysAsText(t *testing.T) {
	h := NewHistogram()
	for i, k := range []int64{math.MinInt64, -100, -10, -9, -1, 0, 1, 2, 9, 10, 19, 100, 1000000000000000000, math.MaxInt64} {
		h.AddN(k, uint64(i))
	}
	got, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"-1":4,"-10":2,"-100":1,"-9":3,"-9223372036854775808":0,"0":5,"1":6,"10":9,"100":11,"1000000000000000000":12,"19":10,"2":7,"9":8,"9223372036854775807":13}`
	if string(got) != want {
		t.Errorf("got  %s\nwant %s", got, want)
	}
}

func TestHistogramJSONCanonicalOnly(t *testing.T) {
	accept := []struct {
		in   string
		want map[int64]uint64
	}{
		{`{}`, map[int64]uint64{}},
		{" {\n} ", map[int64]uint64{}},
		{`{"-128":3,"128":97}`, map[int64]uint64{-128: 3, 128: 97}},
		{"{\n  \"-1\": 0,\r\n\t\"10\" : 18446744073709551615\n }", map[int64]uint64{-1: 0, 10: math.MaxUint64}},
		{`{"-9223372036854775808":1,"9223372036854775807":2}`, map[int64]uint64{math.MinInt64: 1, math.MaxInt64: 2}},
	}
	for _, c := range accept {
		var h Histogram
		if err := json.Unmarshal([]byte(c.in), &h); err != nil {
			t.Errorf("%q rejected: %v", c.in, err)
			continue
		}
		var total uint64
		for _, v := range c.want {
			total += v
		}
		if !sameCounts(&h, c.want) || h.Total() != total {
			t.Errorf("%q decoded to %v, total %d", c.in, h.String(), h.Total())
		}
	}
	reject := []struct{ name, in string }{
		{"aliased keys", `{"1":2,"01":3,"+1":7}`},
		{"duplicate key", `{"1":2,"1":3}`},
		{"leading zero", `{"01":2}`},
		{"plus sign", `{"+1":2}`},
		{"negative zero", `{"-0":2}`},
		{"escaped key", `{"\u0031":2}`},
		{"spaced key", `{" 1":2}`},
		{"empty key", `{"":2}`},
		{"key above int64", `{"9223372036854775808":1}`},
		{"key below int64", `{"-9223372036854775809":1}`},
		{"null count", `{"1":null}`},
		{"negative count", `{"1":-2}`},
		{"fractional count", `{"1":2.0}`},
		{"exponent count", `{"1":2e3}`},
		{"string count", `{"1":"2"}`},
		{"count above uint64", `{"1":18446744073709551616}`},
		{"null histogram", `null`},
		{"array", `[1,2]`},
		{"trailing comma", `{"1":2,}`},
		{"unterminated", `{"1":2`},
		{"trailing data", `{"1":2}x`},
	}
	for _, c := range reject {
		h := NewHistogram()
		if err := h.UnmarshalJSON([]byte(c.in)); err == nil {
			t.Errorf("%s: %q accepted as %v", c.name, c.in, h.String())
		}
	}
}

// FuzzHistogramJSON checks the histogram codec against its reference:
// whatever UnmarshalJSON accepts, referenceDecode accepts with the same
// counts and total; MarshalJSON writes the bytes json.Marshal writes for
// the string-keyed map, and AppendJSON the bytes json.MarshalIndent
// writes; SortText orders the keys as their text; and UnmarshalJSON
// reads MarshalJSON's bytes back.
func FuzzHistogramJSON(f *testing.F) {
	for _, s := range []string{
		`{}`,
		`{"-128":3,"128":97}`,
		"{\n \"-1\": 5,\n \"9\": 1,\n \"10\": 2\n}",
		`{"-9223372036854775808":1,"9223372036854775807":2}`,
		`{"1":2,"01":3,"+1":7}`,
		`{"1":null}`,
		`{"1":1e2}`,
	} {
		f.Add([]byte(s))
	}
	// Binary seeds for the encoding checks: both int64 extremes, then
	// values whose shifts give keys of many decimal lengths and signs.
	seed := []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 0}
	for i := 0; i < 16; i++ {
		var e [9]byte
		e[0] = byte(2 + 4*i)
		binary.LittleEndian.PutUint64(e[1:], uint64(0x9e3779b97f4a7c15)*uint64(i+1))
		seed = append(seed, e[:]...)
	}
	f.Add(seed)

	f.Fuzz(func(t *testing.T, data []byte) {
		var h Histogram
		if err := h.UnmarshalJSON(data); err == nil {
			want, total, err := referenceDecode(data)
			if err != nil {
				t.Fatalf("%q accepted, but the reference rejects it: %v", data, err)
			}
			if !sameCounts(&h, want) || h.Total() != total {
				t.Fatalf("%q decoded to %v (total %d), reference %v (total %d)", data, h.String(), h.Total(), want, total)
			}
		}

		g := histogramFrom(data)
		got, err := g.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(stringKeyed(g))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("MarshalJSON wrote\n%s\njson.Marshal of the string-keyed map writes\n%s", got, want)
		}
		indented := g.AppendJSON([]byte("x"), "   ", " ")
		want, err = json.MarshalIndent(stringKeyed(g), "   ", " ")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(indented, append([]byte("x"), want...)) {
			t.Fatalf("AppendJSON wrote\n%s\njson.MarshalIndent of the string-keyed map writes\nx%s", indented, want)
		}
		keys := g.Keys()
		SortText(keys)
		if !slices.IsSortedFunc(keys, func(a, b int64) int {
			return strings.Compare(strconv.FormatInt(a, 10), strconv.FormatInt(b, 10))
		}) {
			t.Fatalf("SortText left %v out of text order", keys)
		}
		var back Histogram
		if err := back.UnmarshalJSON(got); err != nil {
			t.Fatalf("UnmarshalJSON rejects MarshalJSON's %s: %v", got, err)
		}
		wantCounts := make(map[int64]uint64, g.Len())
		for _, k := range g.Keys() {
			wantCounts[k] = g.Count(k)
		}
		if !sameCounts(&back, wantCounts) || back.Total() != g.Total() {
			t.Fatalf("%s read back as %v", got, back.String())
		}
	})
}
