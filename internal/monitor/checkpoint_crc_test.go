package monitor

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func mustSave(t *testing.T, path string, cursor uint64) {
	t.Helper()
	if err := saveCheckpoint(path, checkpoint{Cursor: cursor, Seen: []string{
		strings.Repeat("ab", 32),
	}}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointCRCTrailer(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp")
	mustSave(t, path, 42)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(blob, []byte("\n"+crcTrailer)) {
		t.Fatalf("saved checkpoint missing CRC trailer:\n%s", blob)
	}
	cp, ok, err := loadCheckpoint(path)
	if err != nil || !ok || cp.Cursor != 42 {
		t.Fatalf("round trip = %+v, %v, %v", cp, ok, err)
	}
}

// TestCheckpointRotatesLastGood saves twice and verifies the first save is
// retained at the .good name — the rollback target a torn publish restores.
func TestCheckpointRotatesLastGood(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp")
	mustSave(t, path, 10)
	mustSave(t, path, 20)
	good, err := os.ReadFile(path + lastGoodSuffix)
	if err != nil {
		t.Fatalf("no last-good copy after second save: %v", err)
	}
	cp, derr := decodeCheckpoint(path+lastGoodSuffix, good)
	if derr != nil || cp.Cursor != 10 {
		t.Fatalf("last-good = %+v, %v; want cursor 10", cp, derr)
	}

	// A legacy primary has no CRC trailer to vouch for it; it rotates
	// because it still parses.
	legacy := fmt.Sprintf(`{"version":%d,"cursor":77}`, checkpointVersion)
	if err := os.WriteFile(path, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	mustSave(t, path, 30)
	if good, err = os.ReadFile(path + lastGoodSuffix); err != nil || string(good) != legacy {
		t.Fatalf("legacy primary not rotated: .good holds %q, %v", good, err)
	}
}

// tornWrites damage a checkpoint the way a torn write does.
var tornWrites = map[string]func([]byte) []byte{
	"truncated": func(b []byte) []byte { return b[:len(b)/2] },
	"bit-flip": func(b []byte) []byte {
		c := bytes.Clone(b)
		c[10] ^= 0x40 // inside the JSON body, CRC now mismatches
		return c
	},
}

// TestCheckpointTornWriteRollsBack corrupts the primary the way a torn write
// does (truncation, bit flip) and verifies load falls back to the last-good
// cursor instead of erroring or trusting the damage.
func TestCheckpointTornWriteRollsBack(t *testing.T) {
	for name, corrupt := range tornWrites {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "cp")
			mustSave(t, path, 10)
			mustSave(t, path, 20)
			blob, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, corrupt(blob), 0o644); err != nil {
				t.Fatal(err)
			}
			cp, ok, err := loadCheckpoint(path)
			if err != nil || !ok {
				t.Fatalf("load after corruption = %v, %v; want last-good fallback", ok, err)
			}
			if cp.Cursor != 10 {
				t.Fatalf("rolled back to cursor %d, want the last-good 10", cp.Cursor)
			}
		})
	}
}

// TestCheckpointCorruptionWithoutLastGood is the first-save torn write: no
// rollback target exists, so the loader must surface the CRC error rather
// than silently starting from genesis and double-alerting history.
func TestCheckpointCorruptionWithoutLastGood(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp")
	mustSave(t, path, 10)
	blob, _ := os.ReadFile(path)
	os.WriteFile(path, blob[:len(blob)/2], 0o644)
	if _, ok, err := loadCheckpoint(path); err == nil || ok {
		t.Fatalf("corrupt checkpoint with no last-good loaded: ok=%v err=%v", ok, err)
	}
}

// TestCheckpointMissingPrimaryUsesLastGood covers a crash between the
// rotation rename and the new file's publish.
func TestCheckpointMissingPrimaryUsesLastGood(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp")
	mustSave(t, path, 10)
	if err := os.Rename(path, path+lastGoodSuffix); err != nil {
		t.Fatal(err)
	}
	cp, ok, err := loadCheckpoint(path)
	if err != nil || !ok || cp.Cursor != 10 {
		t.Fatalf("mid-rotation load = %+v, %v, %v", cp, ok, err)
	}
}

// TestCheckpointDamagedNotRotated verifies save never rotates a file that
// fails validation over the good copy: after a torn primary, another save
// must leave the older valid .good in place as the rollback target. The
// bit flip keeps the CRC trailer, which then no longer matches the body.
func TestCheckpointDamagedNotRotated(t *testing.T) {
	for name, corrupt := range tornWrites {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "cp")
			mustSave(t, path, 10)
			mustSave(t, path, 20) // .good = cursor 10
			blob, _ := os.ReadFile(path)
			os.WriteFile(path, corrupt(blob), 0o644) // tear the primary
			mustSave(t, path, 30)
			good, err := os.ReadFile(path + lastGoodSuffix)
			if err != nil {
				t.Fatal(err)
			}
			cp, derr := decodeCheckpoint(path+lastGoodSuffix, good)
			if derr != nil || cp.Cursor != 10 {
				t.Fatalf("torn primary rotated over the good copy: %+v, %v", cp, derr)
			}
			// And the new primary is the fresh save.
			cp, ok, err := loadCheckpoint(path)
			if err != nil || !ok || cp.Cursor != 30 {
				t.Fatalf("post-repair load = %+v, %v, %v", cp, ok, err)
			}
		})
	}
}

// TestCheckpointLegacyNoTrailerLoads keeps backward compatibility: a file
// written before the CRC trailer existed (bare JSON line) still loads.
func TestCheckpointLegacyNoTrailerLoads(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp")
	legacy := fmt.Sprintf(`{"version":%d,"cursor":77}`, checkpointVersion)
	if err := os.WriteFile(path, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	cp, ok, err := loadCheckpoint(path)
	if err != nil || !ok || cp.Cursor != 77 {
		t.Fatalf("legacy checkpoint refused: %+v, %v, %v", cp, ok, err)
	}
}

// TestCheckpointMissingPrimaryDamagedLastGood: with the primary gone and the
// .good copy damaged there is nothing valid to resume from. Starting fresh
// would rescan from StartBlock and re-alert on history, so the loader must
// refuse with the validation error, as it does for a damaged primary.
func TestCheckpointMissingPrimaryDamagedLastGood(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp")
	mustSave(t, path, 10)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+lastGoodSuffix, blob[:len(blob)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := loadCheckpoint(path); err == nil || ok {
		t.Fatalf("missing primary with a damaged .good loaded: ok=%v err=%v", ok, err)
	}
}
