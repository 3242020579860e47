// The operator's live fleet view: `gmap-eval -fleet-watch` polls
// /fleet/status and repaints a plain-text summary — a top(1) for a
// distributed sweep, no dependencies beyond a VT100 terminal.
package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"
)

// statusDoc mirrors FleetStatus for decoding, with the owner's embedded
// status held raw: fleet cannot import dist, so the coordinator fields
// it renders are re-decoded from the raw message into distMirror.
type statusDoc struct {
	Self         string          `json:"self"`
	NowUnixNS    int64           `json:"now_unix_ns"`
	StaleAfterNS int64           `json:"stale_after_ns"`
	Pushes       uint64          `json:"pushes"`
	Workers      []WorkerHealth  `json:"workers"`
	Dist         json.RawMessage `json:"dist,omitempty"`
}

// distMirror is the subset of the coordinator's Status the watch view
// renders. Unknown fields are ignored, so the view degrades gracefully
// against richer (or absent) status documents — gmap-served embeds a
// composite {dist, queue} document, matched here by the same keys.
type distMirror struct {
	Experiment string `json:"experiment"`
	Epoch      uint64 `json:"epoch"`
	TotalJobs  int    `json:"total_jobs"`
	DoneJobs   int    `json:"done_jobs"`
	Parts      int    `json:"parts"`
	DoneParts  int    `json:"done_parts"`
	LiveLeases int    `json:"live_leases"`
	Granted    uint64 `json:"granted"`
	Expired    uint64 `json:"expired"`
	Done       bool   `json:"done"`
	Partitions []struct {
		Part       int    `json:"part"`
		Keys       int    `json:"keys"`
		Remaining  int    `json:"remaining"`
		Lease      string `json:"lease,omitempty"`
		Worker     string `json:"worker,omitempty"`
		LeaseAgeNS int64  `json:"lease_age_ns,omitempty"`
	} `json:"partitions,omitempty"`
}

// Watch polls target's /fleet/status every interval and repaints w
// with RenderStatus until ctx is cancelled. target is a coordinator URL
// or an addr file (the one -dist-addr-file writes), which is re-read
// before every poll, so the view follows a coordinator restarted on a
// new port. Transient fetch errors render in place of the status rather
// than aborting — the fleet surviving a coordinator restart is exactly
// when an operator is watching.
func Watch(ctx context.Context, w io.Writer, target string, interval time.Duration) error {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	hc := &http.Client{Timeout: interval}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		url := resolve(target) + "/fleet/status"
		doc, err := fetchStatus(ctx, hc, url)
		fmt.Fprint(w, "\033[H\033[2J") // home + clear: repaint in place
		if err != nil {
			fmt.Fprintf(w, "gmap fleet watch — %s\n\n  unreachable: %v\n", url, err)
		} else {
			RenderStatus(w, doc)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
	}
}

// resolve turns target into the base URL to poll: the content of the
// addr file target names while it is readable, otherwise target itself.
func resolve(target string) string {
	base := target
	if data, err := os.ReadFile(target); err == nil {
		base = strings.TrimSpace(string(data))
	}
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return strings.TrimSuffix(base, "/")
}

func fetchStatus(ctx context.Context, hc *http.Client, url string) (statusDoc, error) {
	var doc statusDoc
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return doc, err
	}
	res, err := hc.Do(req)
	if err != nil {
		return doc, err
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		return doc, fmt.Errorf("status %d", res.StatusCode)
	}
	err = json.NewDecoder(res.Body).Decode(&doc)
	return doc, err
}

// RenderStatus writes one watch frame. Exported (and pure) so tests can
// drive it from a fixed document.
func RenderStatus(w io.Writer, doc statusDoc) {
	fmt.Fprintf(w, "gmap fleet — %s  pushes %d\n", doc.Self, doc.Pushes)

	var dm distMirror
	if len(doc.Dist) > 0 && json.Unmarshal(doc.Dist, &dm) == nil && dm.TotalJobs > 0 {
		state := "running"
		if dm.Done {
			state = "done"
		}
		fmt.Fprintf(w, "sweep %s  epoch %d  %s  jobs %d/%d  parts %d/%d  leases %d live (granted %d, expired %d)\n",
			dm.Experiment, dm.Epoch, state, dm.DoneJobs, dm.TotalJobs,
			dm.DoneParts, dm.Parts, dm.LiveLeases, dm.Granted, dm.Expired)
		if len(dm.Partitions) > 0 {
			fmt.Fprintf(w, "\n  %-5s %-6s %-10s %-22s %-14s %s\n",
				"PART", "KEYS", "REMAINING", "LEASE", "WORKER", "LEASE AGE")
			for _, p := range dm.Partitions {
				age := "-"
				if p.LeaseAgeNS > 0 {
					age = time.Duration(p.LeaseAgeNS).Round(time.Millisecond).String()
				}
				lease, worker := p.Lease, p.Worker
				if lease == "" {
					lease, worker = "-", "-"
				}
				fmt.Fprintf(w, "  %-5d %-6d %-10d %-22s %-14s %s\n",
					p.Part, p.Keys, p.Remaining, lease, worker, age)
			}
		}
	}

	workers := append([]WorkerHealth(nil), doc.Workers...)
	sort.Slice(workers, func(i, j int) bool { return workers[i].Name < workers[j].Name })
	fmt.Fprintf(w, "\n  %-14s %-8s %-10s %s\n", "WORKER", "STATE", "LAST PUSH", "PUSHES")
	if len(workers) == 0 {
		fmt.Fprintf(w, "  (no workers reported yet)\n")
	}
	for _, wk := range workers {
		state := "live"
		switch {
		case wk.Final:
			state = "finished"
		case wk.Stale:
			state = "STALE"
		}
		seen := "-"
		if wk.LastSeenUnixNS > 0 {
			seen = time.Duration(wk.AgeNS).Round(time.Millisecond).String() + " ago"
		}
		fmt.Fprintf(w, "  %-14s %-8s %-10s %d\n", wk.Name, state, seen, wk.Pushes)
	}
}
