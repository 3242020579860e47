package dist

import (
	"context"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func healthCoordinator(t *testing.T) *Coordinator {
	t.Helper()
	c, err := NewCoordinator(CoordinatorOptions{
		Spec:     quickSpec("fig6a"),
		Parts:    2,
		LeaseTTL: time.Minute,
		Ledger:   filepath.Join(t.TempDir(), "ledger.jsonl"),
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func hit(h http.Handler, method, path string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, nil))
	return rec
}

// TestHealthReadiness: liveness is unconditional, readiness tracks the
// coordinator's ability to merge — a closed ledger (or a deposed
// incarnation) answers 503 with the reason while /healthz stays 200,
// so an operator can tell a draining coordinator from a dead one.
func TestHealthReadiness(t *testing.T) {
	c := healthCoordinator(t)
	h := c.Handler()
	if rec := hit(h, "GET", "/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("healthz = %d", rec.Code)
	}
	if rec := hit(h, "GET", "/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("readyz on open coordinator = %d: %s", rec.Code, rec.Body.String())
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	rec := hit(h, "GET", "/readyz")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz on closed coordinator = %d, want 503", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "ledger closed") {
		t.Fatalf("readyz body %q should name the reason", rec.Body.String())
	}
	// Liveness is unaffected: the process still serves.
	if rec := hit(h, "GET", "/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("healthz after close = %d", rec.Code)
	}
}

// TestLeaseIgnoresLegacyObsURL: a lease request from an older worker
// that still announces an exposition URL is granted like any other.
func TestLeaseIgnoresLegacyObsURL(t *testing.T) {
	c := healthCoordinator(t)
	defer c.Close()
	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/dist/v1/lease",
		strings.NewReader(`{"worker":"old","obs_url":"http://127.0.0.1:9300"}`)))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"status":"lease"`) {
		t.Fatalf("legacy lease request = %d: %s", rec.Code, rec.Body.String())
	}
}

// TestFleetMountIsDynamic: /fleet/ resolves the federation handler per
// request, so SetFleet works on a coordinator whose server is already
// live — the standby-takeover wiring order.
func TestFleetMountIsDynamic(t *testing.T) {
	c := healthCoordinator(t)
	defer c.Close()
	h := c.Handler()
	if rec := hit(h, "GET", "/fleet/status"); rec.Code != http.StatusNotFound {
		t.Fatalf("unfederated /fleet/ = %d, want 404", rec.Code)
	}
	c.SetFleet(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot)
	}))
	if rec := hit(h, "GET", "/fleet/status"); rec.Code != http.StatusTeapot {
		t.Fatalf("post-SetFleet /fleet/ = %d, want the federation handler", rec.Code)
	}
}

// TestProbeHealth covers the standby's two-step probe against the
// coordinators it can meet: healthy, sick-but-serving, one without
// /healthz, broken and unreachable.
func TestProbeHealth(t *testing.T) {
	hc := &http.Client{Timeout: time.Second}
	ctx := context.Background()

	mk := func(healthCode int, statusCode int, statusBody string) *httptest.Server {
		mux := http.NewServeMux()
		if healthCode != 0 {
			mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
				w.WriteHeader(healthCode)
			})
		}
		mux.HandleFunc("/dist/v1/status", func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(statusCode)
			w.Write([]byte(statusBody))
		})
		return httptest.NewServer(mux)
	}

	t.Run("healthy", func(t *testing.T) {
		srv := mk(http.StatusOK, http.StatusOK, `{"epoch":3,"done":true}`)
		defer srv.Close()
		st, err := probeHealth(ctx, hc, srv.URL)
		if err != nil || st.Epoch != 3 || !st.Done {
			t.Fatalf("st=%+v err=%v", st, err)
		}
	})
	t.Run("alive but status failing", func(t *testing.T) {
		// 200 on /healthz with a broken status endpoint is still alive:
		// liveness is the takeover question, not status availability.
		srv := mk(http.StatusOK, http.StatusInternalServerError, "")
		defer srv.Close()
		st, err := probeHealth(ctx, hc, srv.URL)
		if err != nil {
			t.Fatalf("alive coordinator reported dead: %v", err)
		}
		if st.Epoch != 0 || st.Experiment != "" || st.Done {
			t.Fatalf("expected zero status, got %+v", st)
		}
	})
	t.Run("no healthz", func(t *testing.T) {
		// No /healthz route: the mux answers 404, which is a failed probe
		// even though the status endpoint would answer.
		srv := mk(0, http.StatusOK, `{"epoch":1}`)
		defer srv.Close()
		if _, err := probeHealth(ctx, hc, srv.URL); err == nil {
			t.Fatal("404 healthz should read as a failed probe")
		}
	})
	t.Run("unhealthy", func(t *testing.T) {
		srv := mk(http.StatusServiceUnavailable, http.StatusOK, `{}`)
		defer srv.Close()
		if _, err := probeHealth(ctx, hc, srv.URL); err == nil {
			t.Fatal("503 healthz should read as a failed probe")
		}
	})
	t.Run("unreachable", func(t *testing.T) {
		if _, err := probeHealth(ctx, hc, "http://127.0.0.1:1"); err == nil {
			t.Fatal("connection refusal should read as a failed probe")
		}
	})
}
