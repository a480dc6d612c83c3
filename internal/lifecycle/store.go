// Package lifecycle implements the model-lifecycle subsystem: a versioned
// on-disk model store with integrity checking and champion/challenger
// pointers, and a drift-triggered Retrainer that watches the live score
// distribution and kicks off background retraining.
//
// The store is content-agnostic — it keeps opaque model blobs (the root
// package stores serialized Detectors) next to a JSON manifest recording,
// per version, the model spec, training window, metrics, parentage and a
// SHA-256 digest verified on every read. Two pointers, champion and
// challenger, carry the serving state across processes: a serving handle
// deploys the champion, shadows the challenger, and a promote flips the
// pointers — so an out-of-process retrainer and an in-process server
// coordinate through nothing but this directory.
package lifecycle

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Meta is the caller-supplied metadata recorded with a stored model version.
type Meta struct {
	// Spec is the model spec's display name (e.g. "Random Forest").
	Spec string `json:"spec"`
	// TrainFrom and TrainTo bound the training window in study months,
	// inclusive — the provenance the time-resistance analysis needs.
	TrainFrom int `json:"train_from"`
	TrainTo   int `json:"train_to"`
	// TrainSamples is the training-set size.
	TrainSamples int `json:"train_samples,omitempty"`
	// Metrics carries evaluation numbers (e.g. holdout F1, drift PSI at
	// trigger time).
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Parent is the version this one was retrained from ("" for roots).
	Parent string `json:"parent,omitempty"`
	// Note is free-form provenance (who/why).
	Note string `json:"note,omitempty"`
}

// Version is one stored model version: caller metadata plus the fields the
// store stamps on Put.
type Version struct {
	// ID is the store-assigned identifier ("v0001", monotonically
	// increasing).
	ID string `json:"id"`
	Meta
	// SHA256 is the hex digest of the stored blob, verified on Get.
	SHA256 string `json:"sha256"`
	// Size is the blob size in bytes.
	Size int64 `json:"size"`
	// CreatedUnix is the Put wall-clock time.
	CreatedUnix int64 `json:"created_unix"`
}

// manifest is the persisted store index.
type manifest struct {
	Version    int       `json:"version"`
	Next       int       `json:"next"`
	Champion   string    `json:"champion,omitempty"`
	Challenger string    `json:"challenger,omitempty"`
	Versions   []Version `json:"versions"`
}

const (
	manifestName    = "manifest.json"
	manifestVersion = 1
)

// Store is a versioned model store rooted at one directory. All methods are
// safe for concurrent use within a process; cross-process writers should be
// serialized by the deployment (the manifest write itself is atomic, so
// readers never observe a torn index).
type Store struct {
	dir string

	mu sync.Mutex
	m  manifest
}

// Open loads the store at dir, creating the directory and an empty manifest
// when none exists.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("lifecycle: create store dir: %w", err)
	}
	s := &Store{dir: dir, m: manifest{Version: manifestVersion, Next: 1}}
	blob, err := os.ReadFile(s.manifestPath())
	if os.IsNotExist(err) {
		return s, nil
	}
	if err != nil {
		return nil, fmt.Errorf("lifecycle: read manifest: %w", err)
	}
	if s.m, err = s.parseManifest(blob); err != nil {
		return nil, err
	}
	return s, nil
}

// parseManifest decodes and validates manifest bytes. Version ids become
// blob file names, so a manifest is refused unless every id is "v" plus
// decimal digits and unique, next is above every id (Put never reuses
// one), every digest is a SHA-256 hex string, and the champion and
// challenger are empty or stored versions.
func (s *Store) parseManifest(blob []byte) (manifest, error) {
	var m manifest
	if err := json.Unmarshal(blob, &m); err != nil {
		return manifest{}, fmt.Errorf("lifecycle: parse manifest %s: %w", s.manifestPath(), err)
	}
	if err := m.validate(); err != nil {
		return manifest{}, fmt.Errorf("lifecycle: manifest %s: %w", s.manifestPath(), err)
	}
	return m, nil
}

func (m *manifest) validate() error {
	if m.Version != manifestVersion {
		return fmt.Errorf("has version %d, want %d", m.Version, manifestVersion)
	}
	if m.Next < 1 {
		return fmt.Errorf("next id %d is not positive", m.Next)
	}
	seen := map[int]bool{}
	for _, v := range m.Versions {
		seq, ok := parseVersionID(v.ID)
		if !ok {
			return fmt.Errorf("version id %q is not v plus decimal digits", v.ID)
		}
		if seen[seq] {
			return fmt.Errorf("version id %q is not unique", v.ID)
		}
		seen[seq] = true
		if seq >= m.Next {
			return fmt.Errorf("version id %q is not below next id %d", v.ID, m.Next)
		}
		if sum, err := hex.DecodeString(v.SHA256); err != nil || len(sum) != sha256.Size {
			return fmt.Errorf("version %s digest %q is not SHA-256 hex", v.ID, v.SHA256)
		}
	}
	for _, ptr := range []string{m.Champion, m.Challenger} {
		if ptr != "" && !slices.ContainsFunc(m.Versions, func(v Version) bool { return v.ID == ptr }) {
			return fmt.Errorf("points at unknown version %q", ptr)
		}
	}
	return nil
}

// parseVersionID parses a "vNNNN" id: "v" followed by decimal digits.
func parseVersionID(id string) (int, bool) {
	if len(id) < 2 || id[0] != 'v' {
		return 0, false
	}
	for _, c := range id[1:] {
		if c < '0' || c > '9' {
			return 0, false
		}
	}
	n, err := strconv.Atoi(id[1:])
	if err != nil {
		return 0, false
	}
	return n, true
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) manifestPath() string { return filepath.Join(s.dir, manifestName) }

func (s *Store) blobPath(id string) string { return filepath.Join(s.dir, id+".bin") }

// Reload re-reads the manifest from disk, picking up versions and pointer
// flips written by another process (e.g. a retrain CLI feeding a running
// server's /admin/reload).
func (s *Store) Reload() error {
	blob, err := os.ReadFile(s.manifestPath())
	if os.IsNotExist(err) {
		return nil // a fresh store that has never persisted
	}
	if err != nil {
		return fmt.Errorf("lifecycle: reload manifest: %w", err)
	}
	m, err := s.parseManifest(blob)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.m = m
	s.mu.Unlock()
	return nil
}

// Put stores one model blob under a fresh version id and persists the
// manifest. The first version ever stored becomes champion automatically so
// a fresh deployment is immediately servable.
func (s *Store) Put(blob []byte, meta Meta) (Version, error) {
	if len(blob) == 0 {
		return Version{}, fmt.Errorf("lifecycle: refusing to store an empty model blob")
	}
	sum := sha256.Sum256(blob)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m.Next == math.MaxInt {
		return Version{}, fmt.Errorf("lifecycle: version ids exhausted")
	}
	v := Version{
		ID:          fmt.Sprintf("v%04d", s.m.Next),
		Meta:        meta,
		SHA256:      hex.EncodeToString(sum[:]),
		Size:        int64(len(blob)),
		CreatedUnix: time.Now().Unix(),
	}
	if err := WriteFileAtomic(s.blobPath(v.ID), blob); err != nil {
		return Version{}, fmt.Errorf("lifecycle: store %s: %w", v.ID, err)
	}
	next := s.m
	next.Next++
	next.Versions = append(append([]Version(nil), s.m.Versions...), v)
	if next.Champion == "" {
		next.Champion = v.ID
	}
	if err := s.persistLocked(next); err != nil {
		os.Remove(s.blobPath(v.ID))
		return Version{}, err
	}
	return v, nil
}

// Get returns a stored version's blob after verifying its SHA-256 digest, so
// a corrupted or tampered artifact can never be deserialized into a serving
// model.
func (s *Store) Get(id string) ([]byte, Version, error) {
	v, ok := s.lookup(id)
	if !ok {
		return nil, Version{}, fmt.Errorf("lifecycle: unknown version %q", id)
	}
	blob, err := os.ReadFile(s.blobPath(id))
	if err != nil {
		return nil, Version{}, fmt.Errorf("lifecycle: read %s: %w", id, err)
	}
	sum := sha256.Sum256(blob)
	if hex.EncodeToString(sum[:]) != v.SHA256 {
		return nil, Version{}, fmt.Errorf("lifecycle: %s fails integrity check (blob digest %s, manifest %s)",
			id, hex.EncodeToString(sum[:])[:12], v.SHA256[:12])
	}
	return blob, v, nil
}

// List returns all versions, oldest first.
func (s *Store) List() []Version {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Version(nil), s.m.Versions...)
}

// Lookup resolves one version's metadata.
func (s *Store) Lookup(id string) (Version, bool) { return s.lookup(id) }

func (s *Store) lookup(id string) (Version, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, v := range s.m.Versions {
		if v.ID == id {
			return v, true
		}
	}
	return Version{}, false
}

// Champion returns the current champion version, if any.
func (s *Store) Champion() (Version, bool) {
	s.mu.Lock()
	id := s.m.Champion
	s.mu.Unlock()
	if id == "" {
		return Version{}, false
	}
	return s.lookup(id)
}

// Challenger returns the current challenger version, if any.
func (s *Store) Challenger() (Version, bool) {
	s.mu.Lock()
	id := s.m.Challenger
	s.mu.Unlock()
	if id == "" {
		return Version{}, false
	}
	return s.lookup(id)
}

// Promote makes id the champion, clearing the challenger pointer when it
// pointed at the promoted version (the shadow graduated).
func (s *Store) Promote(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.hasLocked(id) {
		return fmt.Errorf("lifecycle: promote unknown version %q", id)
	}
	next := s.m
	next.Champion = id
	if next.Challenger == id {
		next.Challenger = ""
	}
	return s.persistLocked(next)
}

// SetChallenger points the shadow slot at id ("" clears it).
func (s *Store) SetChallenger(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id != "" && !s.hasLocked(id) {
		return fmt.Errorf("lifecycle: set challenger to unknown version %q", id)
	}
	next := s.m
	next.Challenger = id
	return s.persistLocked(next)
}

// GC removes all but the newest keep versions, always sparing the champion
// and challenger (a pointer among the newest keep counts toward keep), and
// returns the ids it deleted. Blob files are unlinked
// after the manifest commits, so a crash mid-GC leaves orphan blobs rather
// than dangling manifest entries.
func (s *Store) GC(keep int) ([]string, error) {
	if keep < 0 {
		keep = 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.m.Versions)
	if n <= keep {
		return nil, nil
	}
	spare := map[string]bool{s.m.Champion: true, s.m.Challenger: true}
	byAge := append([]Version(nil), s.m.Versions...)
	// Newest first by numeric id — lexical comparison would misorder once
	// ids outgrow the zero padding (v10000 < v2000 lexically).
	sort.Slice(byAge, func(i, j int) bool { return versionSeq(byAge[i].ID) > versionSeq(byAge[j].ID) })
	keepSet := map[string]bool{}
	for i, v := range byAge {
		if i < keep || spare[v.ID] {
			keepSet[v.ID] = true
		}
	}
	next := s.m
	next.Versions = nil
	var removed []string
	for _, v := range s.m.Versions {
		if keepSet[v.ID] {
			next.Versions = append(next.Versions, v)
		} else {
			removed = append(removed, v.ID)
		}
	}
	if len(removed) == 0 {
		return nil, nil
	}
	if err := s.persistLocked(next); err != nil {
		return nil, err
	}
	for _, id := range removed {
		os.Remove(s.blobPath(id))
	}
	return removed, nil
}

// versionSeq parses the numeric suffix of a "vNNNN" id (0 for malformed
// ids, which sort oldest).
func versionSeq(id string) int {
	n, _ := parseVersionID(id)
	return n
}

// hasLocked reports whether id exists; callers hold s.mu.
func (s *Store) hasLocked(id string) bool {
	for _, v := range s.m.Versions {
		if v.ID == id {
			return true
		}
	}
	return false
}

// persistLocked writes the manifest atomically and installs next as the
// in-memory state only on success; callers hold s.mu.
func (s *Store) persistLocked(next manifest) error {
	blob, err := json.MarshalIndent(next, "", "  ")
	if err != nil {
		return fmt.Errorf("lifecycle: marshal manifest: %w", err)
	}
	if err := WriteFileAtomic(s.manifestPath(), append(blob, '\n')); err != nil {
		return fmt.Errorf("lifecycle: persist manifest: %w", err)
	}
	s.m = next
	return nil
}
