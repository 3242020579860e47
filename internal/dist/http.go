package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"github.com/uteda/gmap/internal/serve"
)

// The coordinator's wire surface, mounted under /dist/v1/ on the shared
// serve transport. Control messages (lease, heartbeat, complete,
// status) are small JSON; result deliveries are the binary batch codec
// (codec.go) so checkpoint payload bytes pass through untouched.

// leaseRequest / leaseOpRequest are the JSON bodies of the control
// endpoints. Epoch on lease operations is the fencing epoch the lease
// was granted under.
type leaseRequest struct {
	Worker string `json:"worker"`
}

type leaseOpRequest struct {
	Lease string `json:"lease"`
	Epoch uint64 `json:"epoch"`
}

// resultsResponse reports what a results POST merged.
type resultsResponse struct {
	Accepted   int `json:"accepted"`
	Duplicates int `json:"duplicates"`
}

// completeResponse carries the completion verdict.
type completeResponse struct {
	Status string `json:"status"`
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
// Sweeps routing to the sweep it is coordinating.
type leaseOps interface {
	Lease(worker string) (LeaseGrant, error)
	Heartbeat(lease string, epoch uint64) error
	Results(lease string, epoch uint64, entries []Entry) (accepted, duplicates int, err error)
	Complete(lease string, epoch uint64) (string, error)
}

// handleLeaseOps mounts the four lease operations of ops on mux.
func handleLeaseOps(mux *http.ServeMux, ops leaseOps) {
	mux.HandleFunc("POST /dist/v1/lease", func(w http.ResponseWriter, r *http.Request) {
		var req leaseRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("decode lease request: %w", err))
			return
		}
		if req.Worker == "" {
			req.Worker = r.RemoteAddr
		}
		g, err := ops.Lease(req.Worker)
		if err != nil {
			writeErr(w, statusOf(err), err)
			return
		}
		writeJSON(w, http.StatusOK, g)
	})
	mux.HandleFunc("POST /dist/v1/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req leaseOpRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("decode heartbeat: %w", err))
			return
		}
		if err := ops.Heartbeat(req.Lease, req.Epoch); err != nil {
			writeErr(w, statusOf(err), err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("POST /dist/v1/results", func(w http.ResponseWriter, r *http.Request) {
		data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBatchBytes))
		if err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("read results body: %w", err))
			return
		}
		batch, err := DecodeBatch(data)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		accepted, dups, err := ops.Results(batch.Lease, batch.Epoch, batch.Entries)
		if err != nil {
			writeErr(w, statusOf(err), err)
			return
		}
		writeJSON(w, http.StatusOK, resultsResponse{Accepted: accepted, Duplicates: dups})
	})
	mux.HandleFunc("POST /dist/v1/complete", func(w http.ResponseWriter, r *http.Request) {
		var req leaseOpRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("decode complete: %w", err))
			return
		}
		status, err := ops.Complete(req.Lease, req.Epoch)
		if err != nil {
			writeErr(w, statusOf(err), err)
			return
		}
		writeJSON(w, http.StatusOK, completeResponse{Status: status})
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
