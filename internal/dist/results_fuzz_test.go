package dist

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// recordingOps accepts every lease operation and keeps each delivery
// the results route hands it.
type recordingOps struct{ deliveries []resultsRequest }

func (r *recordingOps) Lease(string) (LeaseGrant, error)       { return LeaseGrant{}, nil }
func (r *recordingOps) Heartbeat(string, string, uint64) error { return nil }
func (r *recordingOps) Results(worker, lease string, epoch uint64, entries []Entry) (int, int, error) {
	r.deliveries = append(r.deliveries, resultsRequest{leaseOpRequest{leaseRequest{worker}, lease, epoch}, entries})
	return len(entries), 0, nil
}

// postResults posts body to a results route backed by recordingOps and
// returns the status and the delivery it passed on, nil if none.
func postResults(t *testing.T, body []byte) (int, *resultsRequest) {
	t.Helper()
	ops := &recordingOps{}
	mux := http.NewServeMux()
	handleLeaseOps(mux, ops)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("POST", "/dist/v1/results", bytes.NewReader(body)))
	switch len(ops.deliveries) {
	case 0:
		return rec.Code, nil
	case 1:
	default:
		t.Fatalf("one body passed on %d deliveries", len(ops.deliveries))
	}
	d := &ops.deliveries[0]
	var resp resultsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.Accepted != len(d.Entries) {
		t.Fatalf("answer %q (%v), want %d accepted", rec.Body, err, len(d.Entries))
	}
	return rec.Code, d
}

// sampleEntries are results in the shapes real sweep points deliver.
func sampleEntries() []Entry {
	return []Entry{
		{Key: "aabbccddeeff001122334455", Value: json.RawMessage(`{"orig":0.25,"prox":0.24}`), ElapsedNS: 1234567},
		{Key: "ffeeddccbbaa998877665544", Value: json.RawMessage(`{"err":1.5,"orig_ns":42}`)},
		{Key: "k", Value: json.RawMessage(`null`), ElapsedNS: 1},
	}
}

// FuzzResultsRoute feeds arbitrary bytes to the results route as a
// POST body. Whatever the input, the route must either answer 400
// without passing anything on, or answer 200 having passed on one
// delivery whose every entry has a key, a value the coordinator can
// compact and a nonnegative elapsed_ns. That delivery, posted again as
// a worker marshals it, must arrive as the same bytes: the wire adds
// and loses nothing. The route must never panic.
func FuzzResultsRoute(f *testing.F) {
	good, err := json.Marshal(resultsRequest{leaseOpRequest{leaseRequest{"w0"}, "lease-2-0042", 2}, sampleEntries()})
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		string(good),
		string(good[:len(good)/2]), // truncated mid-entry
		`{}`,                       // no lease, epoch or entries
		`{"lease":"lease-2-0042","epoch":2,"entries":[]}`,
		"gmapdist2\n\x0clease-2-0042\x02\x01\x01k\x02{}\x00", // a binary batch of the retired codec
		`{"lease":"l","epoch":18446744073709551616,"entries":[]}`,
		`{"lease":"l","epoch":2,"entries":{"key":"k","value":{}}}`,
		`{"lease":"l","epoch":2,"entries":[{"key":"k","value":{},"elapsed_ns":-1}]}`,
		`{"lease":"l","epoch":2,"entries":[{"key":"k"}]}`,
		`{"lease":"l","epoch":2,"entries":[{"key":"","value":{}}]}`,
		`{"lease":"l","epoch":2,"entries":[{"key":"k","value":{ "a" : [1, 2.50] }}]}`,
		`{"LEASE":"l","epoch":2,"entries":[{"key":"k","value":"<&>","key":"k2"}]} {"lease":"m"}`,
	} {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		code, d := postResults(t, body)
		if d == nil {
			if code != http.StatusBadRequest {
				t.Fatalf("answered %d without passing the delivery on", code)
			}
			return
		}
		if code != http.StatusOK {
			t.Fatalf("answered %d after passing the delivery on", code)
		}
		for _, e := range d.Entries {
			if e.Key == "" || e.ElapsedNS < 0 {
				t.Fatalf("passed on entry %+v", e)
			}
			if _, err := compactValue(e.Value); err != nil {
				t.Fatalf("passed on entry %q whose value fails compaction: %v", e.Key, err)
			}
		}
		sent, err := json.Marshal(d)
		if err != nil {
			t.Fatalf("accepted delivery does not marshal: %v", err)
		}
		code, d2 := postResults(t, sent)
		if code != http.StatusOK || d2 == nil {
			t.Fatalf("re-posted delivery %s answered %d", sent, code)
		}
		if again, err := json.Marshal(d2); err != nil || !bytes.Equal(again, sent) {
			t.Fatalf("re-posted delivery changed on the wire:\n%s\nvs\n%s (%v)", sent, again, err)
		}
	})
}
