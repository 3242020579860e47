package stats

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"
)

// MarshalJSON encodes the histogram as a JSON object mapping decimal keys
// to counts, e.g. {"-128":3,"128":97}. Keys appear in the order of their
// decimal text, which is the order encoding/json gives a string-keyed
// map, so the bytes equal json.Marshal of such a map.
func (h *Histogram) MarshalJSON() ([]byte, error) {
	return h.AppendJSON(make([]byte, 0, 2+len(h.counts)*16), "", ""), nil
}

// AppendJSON appends the object MarshalJSON returns to b. With indent
// "" it appends those bytes; otherwise it lays them out as json.Indent
// does with that indent for an object on a line that starts with
// prefix: each entry on its own line under prefix+indent, and the
// closing brace under prefix unless the object is empty.
func (h *Histogram) AppendJSON(b []byte, prefix, indent string) []byte {
	var small [8]textKey
	entries := small[:0]
	if len(h.counts) > len(small) {
		entries = make([]textKey, 0, len(h.counts))
	}
	entries = appendTextKeys(entries, h.counts)
	b = append(b, '{')
	for i, e := range entries {
		if i > 0 {
			b = append(b, ',')
		}
		if indent != "" {
			b = append(b, '\n')
			b = append(b, prefix...)
			b = append(b, indent...)
		}
		b = append(b, '"')
		b = strconv.AppendInt(b, e.key, 10)
		b = append(b, '"', ':')
		if indent != "" {
			b = append(b, ' ')
		}
		b = strconv.AppendUint(b, e.count, 10)
	}
	if indent != "" && len(entries) > 0 {
		b = append(b, '\n')
		b = append(b, prefix...)
	}
	return append(b, '}')
}

// SortText sorts keys in the order of their decimal text, the order in
// which encoding/json writes the entries of an integer-keyed map.
func SortText(keys []int64) {
	entries := make([]textKey, len(keys))
	for i, k := range keys {
		entries[i] = newTextKey(k, 0)
	}
	slices.SortFunc(entries, compareText)
	for i, e := range entries {
		keys[i] = e.key
	}
}

// appendTextKeys appends the entries of counts to entries in the order
// of their keys' decimal text.
func appendTextKeys(entries []textKey, counts map[int64]uint64) []textKey {
	for k, c := range counts {
		entries = append(entries, newTextKey(k, c))
	}
	slices.SortFunc(entries, compareText)
	return entries
}

// pow10 holds the powers of ten an int64 magnitude can reach.
var pow10 = func() (p [19]uint64) {
	p[0] = 1
	for i := 1; i < len(p); i++ {
		p[i] = p[i-1] * 10
	}
	return p
}()

// textKey is a histogram entry with a precomputed rank of its key's
// decimal text, so sorting never formats or divides.
type textKey struct {
	key   int64
	count uint64
	// digits is the magnitude's decimal digits left-aligned to 19 places,
	// so 1 and 10 both give 10^18. Comparing it orders digit strings as
	// text does except when one is the other followed by zeros; ndig,
	// the digit count, then puts the shorter first, as text order does.
	digits uint64
	ndig   uint8
	// nonneg is false for keys whose text starts with '-', which sorts
	// before every digit.
	nonneg bool
}

func newTextKey(k int64, c uint64) textKey {
	mag := uint64(k)
	if k < 0 {
		mag = -mag
	}
	n := 1
	for n < 19 && mag >= pow10[n] {
		n++
	}
	return textKey{key: k, count: c, digits: mag * pow10[19-n], ndig: uint8(n), nonneg: k >= 0}
}

// compareText orders entries as strings.Compare orders their keys'
// decimal text.
func compareText(a, b textKey) int {
	if a.nonneg != b.nonneg {
		if a.nonneg {
			return 1
		}
		return -1
	}
	if c := cmp.Compare(a.digits, b.digits); c != 0 {
		return c
	}
	return cmp.Compare(a.ndig, b.ndig)
}

// UnmarshalJSON decodes the object form MarshalJSON writes, with any JSON
// whitespace between tokens. It accepts only the canonical form: each key
// is an int64 as strconv.FormatInt writes it and appears once, and each
// count is a non-negative integer literal. Aliases such as "01", "+1" or
// "-0" would otherwise decode to a key that depends on map order.
func (h *Histogram) UnmarshalJSON(data []byte) error {
	d := histDecoder{data: data}
	counts := make(map[int64]uint64, bytes.Count(data, []byte{':'}))
	var total uint64
	d.skipSpace()
	if !d.consume('{') {
		return d.errorf("want '{'")
	}
	d.skipSpace()
	if !d.consume('}') {
		for {
			d.skipSpace()
			k, err := d.key()
			if err != nil {
				return err
			}
			if _, dup := counts[k]; dup {
				return d.errorf("duplicate key %d", k)
			}
			d.skipSpace()
			if !d.consume(':') {
				return d.errorf("want ':'")
			}
			d.skipSpace()
			c, err := d.count()
			if err != nil {
				return err
			}
			counts[k] = c
			total += c
			d.skipSpace()
			if d.consume('}') {
				break
			}
			if !d.consume(',') {
				return d.errorf("want ',' or '}'")
			}
		}
	}
	d.skipSpace()
	if d.pos != len(d.data) {
		return d.errorf("trailing data")
	}
	h.counts, h.total = counts, total
	return nil
}

// histDecoder is a cursor over one histogram's JSON text.
type histDecoder struct {
	data []byte
	pos  int
}

func (d *histDecoder) errorf(format string, args ...any) error {
	return fmt.Errorf("stats: histogram JSON at byte %d: %s", d.pos, fmt.Sprintf(format, args...))
}

func (d *histDecoder) skipSpace() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

func (d *histDecoder) consume(c byte) bool {
	if d.pos < len(d.data) && d.data[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

// digits reads a run of decimal digits without a leading zero, unless
// the run is the single digit 0, into a magnitude no larger than limit.
func (d *histDecoder) digits(limit uint64) (uint64, bool) {
	start := d.pos
	var v uint64
	for d.pos < len(d.data) && '0' <= d.data[d.pos] && d.data[d.pos] <= '9' {
		dig := uint64(d.data[d.pos] - '0')
		if v > (limit-dig)/10 {
			return 0, false
		}
		v = v*10 + dig
		d.pos++
	}
	n := d.pos - start
	return v, n == 1 || (n > 1 && d.data[start] != '0')
}

// key reads a quoted key in strconv.FormatInt's form.
func (d *histDecoder) key() (int64, error) {
	start := d.pos
	if !d.consume('"') {
		return 0, d.errorf("want a quoted key")
	}
	neg := d.consume('-')
	limit := uint64(math.MaxInt64)
	if neg {
		limit++
	}
	mag, ok := d.digits(limit)
	if !ok || !d.consume('"') || (neg && mag == 0) {
		d.pos = start
		return 0, d.errorf("key is not a canonical int64")
	}
	if neg {
		return int64(-mag), nil
	}
	return int64(mag), nil
}

// count reads a count: an unsigned integer literal, not null and with no
// sign, fraction or exponent.
func (d *histDecoder) count() (uint64, error) {
	start := d.pos
	c, ok := d.digits(math.MaxUint64)
	if ok && d.pos < len(d.data) {
		switch d.data[d.pos] {
		case '.', 'e', 'E':
			ok = false
		}
	}
	if !ok {
		d.pos = start
		return 0, d.errorf("count is not a non-negative integer")
	}
	return c, nil
}
