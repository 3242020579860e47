// Package dist shards evaluation sweeps across processes: a coordinator
// partitions the job space by the existing stable job hashes
// (eval.Options.SweepKeys), leases partitions to workers over the serve
// transport (internal/serve), and merges streamed-back results through
// the runner's checkpoint salvage/resume machinery into one ledger that
// a deterministic serial replay turns into the final report.
//
// The correctness contract is byte identity: because results are keyed
// by stable job hashes, every job is deterministic, and the merged
// ledger is replayed serially with NoTimings, a Fig6-8 sweep split
// across N worker processes produces figures and reports byte-identical
// to the serial run — under worker kills, coordinator restarts, torn
// ledger writes, and duplicate or late results. The conformance and
// chaos suites in this package hold that line.
//
// Lease state machine (DESIGN.md §13):
//
//	pending ──lease──▶ leased ──last key recorded──▶ done
//	   ▲                  │
//	   └────TTL expiry────┘
//
// A part (partition of the key space) is leased to at most one live
// worker at a time. A lease ends in one of three ways: its holder stops
// heartbeating for one TTL (expiry), its part's last key is recorded,
// or its coordinator is replaced by a restart over the same ledger,
// which fences every lease of the old epoch (epoch.go). A holder that
// heartbeats keeps its part however slowly it delivers. Results are
// accepted idempotently from any lease, live or revoked: a duplicate
// with an identical payload is counted and dropped, a duplicate with a
// divergent payload is an error naming the key — determinism says that
// can only mean two different job universes were merged. A part
// completes when every one of its keys has a recorded result, no matter
// which lease delivered them.
package dist

import (
	"encoding/json"
	"hash/fnv"
)

// PartOf maps a job key onto one of parts partitions. It is a pure
// function of the key bytes (FNV-1a), so every process — coordinator,
// workers, a restarted coordinator — computes the same partition for
// the same job without coordination.
func PartOf(key string, parts int) int {
	if parts <= 1 {
		return 0
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	return int(h.Sum64() % uint64(parts))
}

// Entry is one completed job result in transit: the checkpoint line a
// worker streams to the coordinator, in the checkpoint's own JSON shape.
// Value carries the JSON a local checkpoint would have recorded; the
// coordinator compacts it, so merged-ledger payload comparison is
// byte-level. ElapsedNS is advisory: the ledger line records it, and
// it is never part of job identity.
type Entry struct {
	Key       string          `json:"key"`
	Value     json.RawMessage `json:"value"`
	ElapsedNS int64           `json:"elapsed_ns,omitempty"`
}
