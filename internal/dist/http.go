package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"github.com/uteda/gmap/internal/serve"
)

// The coordinator's wire surface, mounted under /dist/v1/ on the shared
// serve transport. Every message is JSON: the three lease operations
// (lease, heartbeat, results) and status. A result's value is embedded
// as raw JSON and compacted on receipt, so its bytes reach the ledger
// exactly as a local checkpoint would have recorded them.

// leaseRequest, leaseOpRequest and resultsRequest are the bodies of the
// lease operations. Each names its worker; a body that names none is
// named by its remote address. Epoch is the fencing epoch the lease was
// granted under; a body without one reads epoch 0, which no coordinator
// holds.
type leaseRequest struct {
	Worker string `json:"worker"`
}

type leaseOpRequest struct {
	leaseRequest
	Lease string `json:"lease"`
	Epoch uint64 `json:"epoch"`
}

type resultsRequest struct {
	leaseOpRequest
	Entries []Entry `json:"entries"`
}

// maxResultsBytes caps a results body; values are one simulation
// point's JSON each, far below it.
const maxResultsBytes = 64 << 20

// resultsResponse reports what a results POST merged.
type resultsResponse struct {
	Accepted   int `json:"accepted"`
	Duplicates int `json:"duplicates"`
}

// Machine-readable error codes carried beside the human message, so
// clients map wire errors back onto sentinels without string-matching.
const (
	codeGone       = "gone"
	codeStaleEpoch = "stale_epoch"
	codeDivergent  = "divergent"
	codeForeign    = "foreign"
)

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v) // the connection is the only failure mode here
}

func writeErr(w http.ResponseWriter, code int, err error) {
	body := map[string]string{"error": err.Error()}
	if c := codeOf(err); c != "" {
		body["code"] = c
	}
	writeJSON(w, code, body)
}

// codeOf maps protocol sentinels to their wire codes.
func codeOf(err error) string {
	switch {
	case errors.Is(err, ErrLeaseGone):
		return codeGone
	case errors.Is(err, ErrStaleEpoch):
		return codeStaleEpoch
	case errors.Is(err, ErrDivergent):
		return codeDivergent
	case errors.Is(err, ErrForeignKey):
		return codeForeign
	default:
		return ""
	}
}

// statusOf maps protocol errors onto HTTP statuses: a gone lease is 410
// (the worker must re-lease), a stale epoch, divergent or foreign
// result is 409 (the submission conflicts with coordinator state and
// retrying it verbatim can never succeed), anything else is a 500
// infrastructure failure.
func statusOf(err error) int {
	switch {
	case errors.Is(err, ErrLeaseGone):
		return http.StatusGone
	case errors.Is(err, ErrStaleEpoch), errors.Is(err, ErrDivergent), errors.Is(err, ErrForeignKey):
		return http.StatusConflict
	default:
		return http.StatusInternalServerError
	}
}

// leaseOps is the server side of the lease protocol: a Coordinator, or
// Sweeps routing to the sweep it is coordinating. Every operation names
// the worker that asks. A part ends when its last key is recorded.
type leaseOps interface {
	Lease(worker string) (LeaseGrant, error)
	Heartbeat(worker, lease string, epoch uint64) error
	Results(worker, lease string, epoch uint64, entries []Entry) (accepted, duplicates int, err error)
}

// decodeBody decodes r's JSON body, at most limit bytes, into v. A body
// that does not decode is answered 400 and reported false.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v interface{}) bool {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("decode %s: %w", r.URL.Path, err))
		return false
	}
	return true
}

// worker names the worker behind r: the name its body gives, else its
// remote address.
func (q leaseRequest) worker(r *http.Request) string {
	if q.Worker == "" {
		return r.RemoteAddr
	}
	return q.Worker
}

// handleLeaseOps mounts the three lease operations of ops on mux.
func handleLeaseOps(mux *http.ServeMux, ops leaseOps) {
	mux.HandleFunc("POST /dist/v1/lease", func(w http.ResponseWriter, r *http.Request) {
		var req leaseRequest
		if !decodeBody(w, r, 1<<16, &req) {
			return
		}
		g, err := ops.Lease(req.worker(r))
		if err != nil {
			writeErr(w, statusOf(err), err)
			return
		}
		writeJSON(w, http.StatusOK, g)
	})
	mux.HandleFunc("POST /dist/v1/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req leaseOpRequest
		if !decodeBody(w, r, 1<<16, &req) {
			return
		}
		if err := ops.Heartbeat(req.worker(r), req.Lease, req.Epoch); err != nil {
			writeErr(w, statusOf(err), err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("POST /dist/v1/results", func(w http.ResponseWriter, r *http.Request) {
		var req resultsRequest
		if !decodeBody(w, r, maxResultsBytes, &req) {
			return
		}
		// A malformed entry is the sender's fault, answered before the
		// coordinator sees the delivery: a missing value would otherwise
		// fail compaction as a 500 that the worker retries.
		for _, e := range req.Entries {
			if e.Key == "" || len(e.Value) == 0 || e.ElapsedNS < 0 {
				writeErr(w, http.StatusBadRequest, fmt.Errorf("result entry %q: want a key, a value and a nonnegative elapsed_ns", e.Key))
				return
			}
		}
		accepted, dups, err := ops.Results(req.worker(r), req.Lease, req.Epoch, req.Entries)
		if err != nil {
			writeErr(w, statusOf(err), err)
			return
		}
		writeJSON(w, http.StatusOK, resultsResponse{Accepted: accepted, Duplicates: dups})
	})
}

// Handler mounts the coordinator's endpoints.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	handleLeaseOps(mux, c)
	mux.HandleFunc("GET /dist/v1/status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, c.StatusSnapshot())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if err := c.Ready(); err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	if c.fleet != nil {
		mux.Handle("/fleet/", c.fleet)
	}
	return serve.Instrument(c.o.Obs, "dist", mux)
}

// Serve binds addr (":0" picks a free port) and serves the coordinator
// API until ctx is cancelled, on the shared serve transport.
func (c *Coordinator) Serve(ctx context.Context, addr string) (*serve.Server, error) {
	return serve.Start(ctx, "gmap-dist", addr, c.Handler())
}
