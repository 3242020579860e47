package main

import (
	"strings"
	"testing"
)

// TestCheckModeFlags pins which flags each mode reads: a flag the mode
// would ignore fails, naming the first such flag in command-line (flag
// package) order.
func TestCheckModeFlags(t *testing.T) {
	cases := []struct {
		mode    string
		set     []string
		wantErr string
	}{
		{modeSerial, []string{"exp", "out", "summary", "trace-out", "attr-out", "serve", "workers"}, ""},
		{modeSerial, []string{"dist-parts"}, "-dist-parts has no effect in a serial sweep"},
		{modeSerial, []string{"dist-addr-file"}, "-dist-addr-file has no effect in a serial sweep"},
		{modeSerial, []string{"dist-lease-ttl"}, "-dist-lease-ttl has no effect in a serial sweep"},
		{modeSerial, []string{"fleet-interval"}, "-fleet-interval has no effect in a serial sweep"},

		{modeCoordinator, []string{"checkpoint", "dist-listen", "exp", "no-timings", "out", "resume", "trace-out"}, ""},
		{modeCoordinator, []string{"cores", "dist-addr-file", "dist-lease-ttl", "dist-parts", "fsync", "quiet", "seed"}, ""},
		{modeCoordinator, []string{"obs-snapshot"}, "-obs-snapshot has no effect with -dist-listen"},
		{modeCoordinator, []string{"summary"}, "-summary has no effect with -dist-listen"},
		{modeCoordinator, []string{"attr-out"}, "-attr-out has no effect with -dist-listen"},
		{modeCoordinator, []string{"attr-threshold"}, "-attr-threshold has no effect with -dist-listen"},
		{modeCoordinator, []string{"attr-top"}, "-attr-top has no effect with -dist-listen"},
		{modeCoordinator, []string{"serve"}, "-serve has no effect with -dist-listen"},
		{modeCoordinator, []string{"workers"}, "-workers has no effect with -dist-listen"},
		{modeCoordinator, []string{"job-timeout"}, "-job-timeout has no effect with -dist-listen"},
		{modeCoordinator, []string{"tolerate"}, "-tolerate has no effect with -dist-listen"},
		{modeCoordinator, []string{"worker"}, "-worker has no effect with -dist-listen"},
		{modeCoordinator, []string{"worker-addr-file"}, "-worker-addr-file has no effect with -dist-listen"},

		{modeWorker, []string{"quiet", "serve", "worker", "worker-addr-file", "workers"}, ""},
		{modeWorker, []string{"exp"}, "-exp has no effect in worker mode"},
		{modeWorker, []string{"benchmarks"}, "-benchmarks has no effect in worker mode"},
		{modeWorker, []string{"scale-factor"}, "-scale-factor has no effect in worker mode"},
		{modeWorker, []string{"checkpoint"}, "-checkpoint has no effect in worker mode"},
		{modeWorker, []string{"out"}, "-out has no effect in worker mode"},
		{modeWorker, []string{"trace-out"}, "-trace-out has no effect in worker mode"},

		{modeFleetWatch, []string{"fleet-interval", "fleet-watch"}, ""},
		{modeFleetWatch, []string{"quiet"}, "-quiet has no effect with -fleet-watch"},
		{modeFleetWatch, []string{"dist-listen"}, "-dist-listen has no effect with -fleet-watch"},
		{modeFleetWatch, []string{"exp", "worker"}, "-exp has no effect with -fleet-watch"},
	}
	for _, tc := range cases {
		t.Run(tc.mode+"/"+strings.Join(tc.set, ","), func(t *testing.T) {
			err := checkModeFlags(tc.mode, tc.set)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatal(err)
				}
				return
			}
			if err == nil || err.Error() != tc.wantErr {
				t.Fatalf("err = %v, want %q", err, tc.wantErr)
			}
		})
	}
}

// TestEvalMode: -fleet-watch wins over -dist-listen, which wins over the
// worker flags; nothing selects a serial sweep.
func TestEvalMode(t *testing.T) {
	cases := []struct {
		fleetWatch, distListen, worker, workerAddr string
		want                                       string
	}{
		{"", "", "", "", modeSerial},
		{"http://h:1", ":0", "http://h:2", "", modeFleetWatch},
		{"", ":0", "http://h:2", "", modeCoordinator},
		{"", "", "http://h:2", "", modeWorker},
		{"", "", "", "coord.addr", modeWorker},
	}
	for _, tc := range cases {
		if got := evalMode(tc.fleetWatch, tc.distListen, tc.worker, tc.workerAddr); got != tc.want {
			t.Errorf("evalMode(%q, %q, %q, %q) = %q, want %q", tc.fleetWatch, tc.distListen, tc.worker, tc.workerAddr, got, tc.want)
		}
	}
}
