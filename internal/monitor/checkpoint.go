package monitor

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"

	"github.com/phishinghook/phishinghook/internal/lifecycle"
)

// checkpoint is the persisted ingestion state. Cursor is the last block
// whose deployments have all been scored (for a backfill: the minimum over
// shard cursors, i.e. the contiguous lower bound); Seen carries the
// bytecode-hash dedup set so a restarted scanner neither re-scores old
// blocks nor re-alerts on clones of bytecodes it already judged.
//
// Shards is the backfill extension: one cursor per range shard, so a killed
// backfill restarts every shard exactly where it left off. The field is
// optional and the version is unchanged, keeping the format backward
// compatible both ways — existing watcher checkpoints load into new code,
// and a watcher reading a backfill checkpoint sees the conservative Cursor.
type checkpoint struct {
	Version int    `json:"version"`
	Cursor  uint64 `json:"cursor"`
	// ModelVersion is the lifecycle version of the most recent score before
	// the snapshot — after a restart it answers "which detector version had
	// judged everything up to this cursor" even across hot swaps.
	ModelVersion string `json:"model_version,omitempty"`
	// Modality marks which workload owns the file: "" (contract — the
	// historical default, so every pre-existing checkpoint loads unchanged)
	// or "tx" (transaction watcher). Loaders refuse the other workload's
	// checkpoints instead of silently merging incompatible cursors.
	Modality string      `json:"modality,omitempty"`
	Seen     []string    `json:"seen,omitempty"` // hex SHA-256 bytecode (or tx) hashes
	Shards   []shardMark `json:"shards,omitempty"`
}

// shardMark is one backfill shard's persisted progress: the shard scans
// (Cursor, To] and is done when Cursor == To.
type shardMark struct {
	From   uint64 `json:"from"`
	To     uint64 `json:"to"`
	Cursor uint64 `json:"cursor"`
}

// decodeSeen parses the hex dedup hashes back into keys.
func (cp *checkpoint) decodeSeen() ([][32]byte, error) {
	out := make([][32]byte, len(cp.Seen))
	for i, h := range cp.Seen {
		b, err := hex.DecodeString(h)
		if err != nil || len(b) != 32 {
			return nil, fmt.Errorf("bad dedup hash %q", h)
		}
		copy(out[i][:], b)
	}
	return out, nil
}

const checkpointVersion = 1

// crcTrailer precedes the hex CRC32 on the checkpoint's second line. The
// trailer lets the loader tell a torn or bit-rotted file from a good one
// instead of trusting whatever json.Unmarshal makes of the damage; files
// without it (written before the trailer existed) still load.
const crcTrailer = "crc32 "

// lastGoodSuffix names the retained previous checkpoint. A file that fails
// CRC or parse validation rolls back to it: the watcher restarts from an
// older cursor and rescans a bounded window instead of refusing to start.
const lastGoodSuffix = ".good"

// encodeCheckpoint renders the on-disk form: one JSON line plus a CRC32
// trailer line covering it.
func encodeCheckpoint(cp checkpoint) ([]byte, error) {
	cp.Version = checkpointVersion
	blob, err := json.Marshal(cp)
	if err != nil {
		return nil, fmt.Errorf("monitor: marshal checkpoint: %w", err)
	}
	sum := crc32.ChecksumIEEE(blob)
	return append(blob, fmt.Sprintf("\n%s%08x\n", crcTrailer, sum)...), nil
}

// checkTrailer splits a checkpoint file into its JSON body and verifies the
// CRC trailer when there is one. trailer reports whether the file carries
// one; a legacy file without it comes back whole and unchecked.
func checkTrailer(path string, blob []byte) (body []byte, trailer bool, err error) {
	i := bytes.Index(blob, []byte("\n"+crcTrailer))
	if i < 0 {
		return blob, false, nil
	}
	hexSum := bytes.TrimSpace(blob[i+1+len(crcTrailer):])
	var want uint32
	if _, err := fmt.Sscanf(string(hexSum), "%08x", &want); err != nil {
		return nil, true, fmt.Errorf("monitor: checkpoint %s has a malformed CRC trailer", path)
	}
	if got := crc32.ChecksumIEEE(blob[:i]); got != want {
		return nil, true, fmt.Errorf("monitor: checkpoint %s fails CRC (stored %08x, computed %08x) — torn write", path, want, got)
	}
	return blob[:i], true, nil
}

// decodeCheckpoint parses and validates one checkpoint file's bytes.
func decodeCheckpoint(path string, blob []byte) (checkpoint, error) {
	body, _, err := checkTrailer(path, blob)
	if err != nil {
		return checkpoint{}, err
	}
	var cp checkpoint
	if err := json.Unmarshal(body, &cp); err != nil {
		return checkpoint{}, fmt.Errorf("monitor: parse checkpoint %s: %w", path, err)
	}
	if cp.Version != checkpointVersion {
		return checkpoint{}, fmt.Errorf("monitor: checkpoint %s has version %d, want %d", path, cp.Version, checkpointVersion)
	}
	return cp, nil
}

// saveCheckpoint publishes atomically (temp + fsync + rename + directory
// fsync via the shared lifecycle helper) with a CRC trailer, after rotating
// the current file — if it still validates — to the last-good name. The
// rotation is what makes a torn publish recoverable: load falls back to the
// previous cursor and rescans the gap.
func saveCheckpoint(path string, cp checkpoint) error {
	blob, err := encodeCheckpoint(cp)
	if err != nil {
		return err
	}
	if prev, err := os.ReadFile(path); err == nil {
		// Only a checkpoint that validates today is worth keeping as the
		// rollback target; rotating damage over a good .good would lose
		// the one copy that can still restart us. The CRC trailer decides
		// for every file written since it existed (a torn prefix loses or
		// mangles it), so the save on the loop parses only a legacy file.
		_, trailer, err := checkTrailer(path, prev)
		if !trailer {
			_, err = decodeCheckpoint(path, prev)
		}
		if err == nil {
			os.Rename(path, path+lastGoodSuffix)
		}
	}
	if err := lifecycle.WriteFileAtomic(path, blob); err != nil {
		return fmt.Errorf("monitor: commit checkpoint: %w", err)
	}
	return nil
}

// loadCheckpoint reads a checkpoint. With neither the file nor its .good
// copy present it returns ok=false and no error (a fresh loop). A file that
// fails CRC or parse validation falls back to the retained last-good copy:
// the caller resumes from the older cursor (a bounded rescan — dedup keeps
// alerting exactly-once) instead of refusing to start. The primary may also
// be missing mid-rotation (a crash between the rename and the publish), and
// the last-good copy resumes then too. When the copy that would resume is
// damaged as well the validation error is returned: starting fresh would
// rescan from the start block and re-alert on history.
func loadCheckpoint(path string) (checkpoint, bool, error) {
	cp, err := readCheckpoint(path)
	if err == nil {
		return cp, true, nil
	}
	good, gerr := readCheckpoint(path + lastGoodSuffix)
	switch {
	case gerr == nil:
		return good, true, nil
	case !errors.Is(err, fs.ErrNotExist):
		return checkpoint{}, false, err
	case !errors.Is(gerr, fs.ErrNotExist):
		return checkpoint{}, false, gerr
	}
	return checkpoint{}, false, nil
}

// readCheckpoint reads and validates one checkpoint file.
func readCheckpoint(path string) (checkpoint, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return checkpoint{}, fmt.Errorf("monitor: read checkpoint: %w", err)
	}
	return decodeCheckpoint(path, blob)
}
