package dist

import (
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

// TestFleetMountIsStatic: /fleet/ answers 404 on a coordinator without
// federation, and serves the handler SetFleet mounted before Handler
// built the mux.
func TestFleetMountIsStatic(t *testing.T) {
	c := healthCoordinator(t)
	defer c.Close()
	if rec := hit(c.Handler(), "GET", "/fleet/metrics"); rec.Code != http.StatusNotFound {
		t.Fatalf("unfederated /fleet/ = %d, want 404", rec.Code)
	}
	c.SetFleet(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot)
	}))
	if rec := hit(c.Handler(), "GET", "/fleet/metrics"); rec.Code != http.StatusTeapot {
		t.Fatalf("/fleet/ after SetFleet = %d, want the federation handler", rec.Code)
	}
}
