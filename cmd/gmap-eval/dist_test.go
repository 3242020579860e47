package main

import (
	"testing"

	"github.com/uteda/gmap/internal/dist"
)

// TestCoordinatorOptionsCarryFsync: -fsync with -dist-listen must sync
// the coordinator's ledger, as it syncs the serial checkpoint.
func TestCoordinatorOptionsCarryFsync(t *testing.T) {
	spec := dist.SweepSpec{Experiment: "fig6a"}
	for _, fsync := range []bool{false, true} {
		co := distFlags{listen: ":0", fsync: fsync}.coordinatorOptions(spec, "sweep.ckpt")
		if co.Fsync != fsync {
			t.Errorf("-fsync=%v: coordinator Fsync = %v", fsync, co.Fsync)
		}
		if co.Ledger != "sweep.ckpt" || co.Spec.Experiment != "fig6a" {
			t.Errorf("options = %+v, want the ledger and spec passed in", co)
		}
	}
}
