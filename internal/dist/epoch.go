package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"

	"github.com/uteda/gmap/internal/fault"
)

// Epoch fencing (DESIGN.md §14). Every coordinator incarnation over a
// ledger claims a monotonically increasing epoch, persisted in a tiny
// sidecar file next to the ledger. Leases, heartbeats and result
// deliveries all carry the epoch they were granted under, and every
// mutating operation re-reads the sidecar before touching the ledger:
// a coordinator that discovers a higher persisted epoch has been
// superseded by a restart over the same ledger and permanently fences
// itself, so a deposed coordinator — one thought dead that comes back —
// can never append to a ledger someone else now owns. That is the
// split-brain guard that makes a restart safe without any coordination
// channel beyond the shared filesystem.

// ErrStaleEpoch reports traffic fenced to an older coordinator epoch:
// either the request carried an epoch that is no longer current, or the
// coordinator itself discovered it has been deposed. Workers treat it
// on a heartbeat or result delivery exactly like a lost lease — abandon
// the shard, deliver nothing more for it, and re-lease (the new
// coordinator re-issues the remaining keys). A lease request carries no
// epoch, so a deposed coordinator's answer to one is retried, within
// the worker's retry budget, at the re-resolved address. Over HTTP it maps to 409 Conflict, because
// retrying the same request at the same coordinator can never succeed.
var ErrStaleEpoch = errors.New("dist: stale coordinator epoch")

// EpochPath is the sidecar file recording the current coordinator epoch
// for the ledger.
func EpochPath(ledger string) string { return ledger + ".epoch" }

// epochRecord is the sidecar file's JSON payload.
type epochRecord struct {
	Epoch uint64 `json:"epoch"`
}

// ReadEpoch returns the persisted coordinator epoch for ledger; a
// missing sidecar is epoch 0 (no coordinator has ever claimed it).
func ReadEpoch(fsys fault.FS, ledger string) (uint64, error) {
	if fsys == nil {
		fsys = fault.OS
	}
	f, err := fsys.Open(EpochPath(ledger))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return 0, nil
		}
		return 0, fmt.Errorf("dist: reading epoch file: %w", err)
	}
	defer f.Close()
	data, err := io.ReadAll(io.LimitReader(f, 1<<10))
	if err != nil {
		return 0, fmt.Errorf("dist: reading epoch file: %w", err)
	}
	var rec epochRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return 0, fmt.Errorf("dist: epoch file %s is corrupt: %w", EpochPath(ledger), err)
	}
	return rec.Epoch, nil
}

// writeEpoch persists epoch atomically (fault.WriteFile): a crash at
// any byte leaves either the old record or the new one, never a torn
// mix, so ReadEpoch can always answer.
func writeEpoch(fsys fault.FS, ledger string, epoch uint64) error {
	data, err := json.Marshal(epochRecord{Epoch: epoch})
	if err != nil {
		return err
	}
	if err := fault.WriteFile(fsys, EpochPath(ledger), append(data, '\n')); err != nil {
		return fmt.Errorf("dist: writing epoch file: %w", err)
	}
	return nil
}

// WriteAddrFile atomically publishes a coordinator address (host:port)
// to path (fault.WriteFile), so a worker re-reading the file mid-
// rewrite sees either the old address or the new one, never a torn
// prefix. A coordinator restarted over the same ledger rewrites this
// file; workers re-read it before every retry.
func WriteAddrFile(fsys fault.FS, path, addr string) error {
	if err := fault.WriteFile(fsys, path, []byte(addr+"\n")); err != nil {
		return fmt.Errorf("dist: writing addr file: %w", err)
	}
	return nil
}
