package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// Watch is the operator's live fleet view behind `gmap-eval
// -fleet-watch`: a top(1) for a distributed sweep, no dependencies
// beyond a VT100 terminal. It polls target's GET /dist/v1/status every
// interval and repaints w with RenderStatus until ctx is cancelled.
// target is the URL of a coordinator (gmap-eval -dist-listen, or
// gmap-served) or an addr file, re-read before every poll, so the view
// follows a coordinator restarted on a new port. A failed fetch renders
// in place of the status rather than aborting: the fleet surviving a
// coordinator restart is exactly when an operator is watching.
func Watch(ctx context.Context, w io.Writer, target string, interval time.Duration) error {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	hc := &http.Client{Timeout: interval}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		url := resolveEndpoint(target, target) + "/dist/v1/status"
		st, err := fetchStatus(ctx, hc, url)
		fmt.Fprintf(w, "\033[H\033[2Jgmap fleet — %s\n\n", url) // home + clear: repaint in place
		if err != nil {
			fmt.Fprintf(w, "  unreachable: %v\n", err)
		} else {
			RenderStatus(w, st)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
	}
}

func fetchStatus(ctx context.Context, hc *http.Client, url string) (Status, error) {
	var st Status
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return st, err
	}
	res, err := hc.Do(req)
	if err != nil {
		return st, err
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		return st, fmt.Errorf("status %d", res.StatusCode)
	}
	err = json.NewDecoder(res.Body).Decode(&st)
	return st, err
}

// RenderStatus writes one watch frame of st: the sweep line and the
// partition table while a sweep is coordinated, then one row per
// roster worker with its state and the leases it was granted.
func RenderStatus(w io.Writer, st Status) {
	if st.Experiment == "" {
		fmt.Fprintln(w, "no sweep being coordinated")
	} else {
		state := "running"
		if st.Done {
			state = "done"
		}
		fmt.Fprintf(w, "sweep %s  epoch %d  %s  jobs %d/%d  parts %d/%d  leases %d live (granted %d, expired %d)\n",
			st.Experiment, st.Epoch, state, st.DoneJobs, st.TotalJobs,
			st.DoneParts, st.Parts, st.LiveLeases, st.Granted, st.Expired)
		if len(st.Partitions) > 0 {
			fmt.Fprintf(w, "\n  %-5s %-6s %-10s %-22s %-14s %s\n",
				"PART", "KEYS", "REMAINING", "LEASE", "WORKER", "LEASE AGE")
			for _, p := range st.Partitions {
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

	fmt.Fprintf(w, "\n  %-14s %-6s %s\n", "WORKER", "STATE", "LEASES")
	if len(st.Workers) == 0 {
		fmt.Fprintln(w, "  (no workers yet)")
	}
	for _, wk := range st.Workers {
		fmt.Fprintf(w, "  %-14s %-6s %d\n", wk.Name, wk.State, wk.Granted)
	}
}
