package lifecycle

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func openTestStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStorePutGetRoundTrip(t *testing.T) {
	s := openTestStore(t)
	blob := []byte("model-bytes-1")
	v, err := s.Put(blob, Meta{Spec: "Random Forest", TrainFrom: 0, TrainTo: 8, TrainSamples: 700})
	if err != nil {
		t.Fatal(err)
	}
	if v.ID != "v0001" {
		t.Fatalf("first id = %q, want v0001", v.ID)
	}
	got, meta, err := s.Get(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(blob) {
		t.Fatalf("blob round trip mismatch: %q", got)
	}
	if meta.Spec != "Random Forest" || meta.TrainTo != 8 || meta.Size != int64(len(blob)) {
		t.Fatalf("metadata mismatch: %+v", meta)
	}
	// First Put auto-promotes so a fresh store is servable.
	champ, ok := s.Champion()
	if !ok || champ.ID != v.ID {
		t.Fatalf("champion = %+v ok=%v, want %s", champ, ok, v.ID)
	}
	if _, _, err := s.Get("v9999"); err == nil {
		t.Fatal("unknown version should fail")
	}
	if _, err := s.Put(nil, Meta{}); err == nil {
		t.Fatal("empty blob should fail")
	}
}

func TestStoreIntegrityCheck(t *testing.T) {
	s := openTestStore(t)
	v, err := s.Put([]byte("pristine model"), Meta{Spec: "SVM"})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(s.Dir(), v.ID+".bin")
	if err := os.WriteFile(path, []byte("tampered model"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get(v.ID); err == nil {
		t.Fatal("tampered blob must fail the SHA-256 check")
	}
}

func TestStorePromoteAndChallengerFlow(t *testing.T) {
	s := openTestStore(t)
	v1, err := s.Put([]byte("m1"), Meta{Spec: "RF"})
	if err != nil {
		t.Fatal(err)
	}
	v2, err := s.Put([]byte("m2"), Meta{Spec: "RF", Parent: v1.ID})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetChallenger(v2.ID); err != nil {
		t.Fatal(err)
	}
	ch, ok := s.Challenger()
	if !ok || ch.ID != v2.ID {
		t.Fatalf("challenger = %+v ok=%v", ch, ok)
	}
	if err := s.Promote(v2.ID); err != nil {
		t.Fatal(err)
	}
	champ, _ := s.Champion()
	if champ.ID != v2.ID {
		t.Fatalf("champion after promote = %s, want %s", champ.ID, v2.ID)
	}
	if _, ok := s.Challenger(); ok {
		t.Fatal("promoting the challenger must clear the shadow slot")
	}
	if err := s.Promote("v9999"); err == nil {
		t.Fatal("promoting an unknown version should fail")
	}
	if err := s.SetChallenger("v9999"); err == nil {
		t.Fatal("shadowing an unknown version should fail")
	}
}

func TestStorePersistsAcrossOpens(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	v1, _ := s.Put([]byte("m1"), Meta{Spec: "RF"})
	v2, _ := s.Put([]byte("m2"), Meta{Spec: "RF", Parent: v1.ID})
	if err := s.SetChallenger(v2.ID); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(re.List()); got != 2 {
		t.Fatalf("reopened store lists %d versions, want 2", got)
	}
	champ, _ := re.Champion()
	ch, _ := re.Challenger()
	if champ.ID != v1.ID || ch.ID != v2.ID {
		t.Fatalf("reopened pointers champion=%s challenger=%s", champ.ID, ch.ID)
	}
	// Ids keep increasing after reopen — no reuse.
	v3, err := re.Put([]byte("m3"), Meta{Spec: "RF"})
	if err != nil {
		t.Fatal(err)
	}
	if v3.ID != "v0003" {
		t.Fatalf("post-reopen id = %s, want v0003", v3.ID)
	}
}

func TestStoreReloadSeesExternalWrites(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Put([]byte("m1"), Meta{Spec: "RF"}); err != nil {
		t.Fatal(err)
	}
	// A second handle (another process in production) adds a challenger.
	b, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := b.Put([]byte("m2"), Meta{Spec: "RF"})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.SetChallenger(v2.ID); err != nil {
		t.Fatal(err)
	}
	if _, ok := a.Challenger(); ok {
		t.Fatal("stale handle should not see the challenger yet")
	}
	if err := a.Reload(); err != nil {
		t.Fatal(err)
	}
	ch, ok := a.Challenger()
	if !ok || ch.ID != v2.ID {
		t.Fatalf("after Reload challenger = %+v ok=%v, want %s", ch, ok, v2.ID)
	}
}

func TestStoreGCSparesPointers(t *testing.T) {
	s := openTestStore(t)
	var ids []string
	for i := 0; i < 6; i++ {
		v, err := s.Put([]byte{byte(i), 1, 2}, Meta{Spec: "RF"})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}
	// champion = v0001 (auto), challenger = v0003; keep the newest 1, which
	// is neither.
	if err := s.SetChallenger(ids[2]); err != nil {
		t.Fatal(err)
	}
	removed, err := s.GC(1)
	if err != nil {
		t.Fatal(err)
	}
	left := map[string]bool{}
	for _, v := range s.List() {
		left[v.ID] = true
	}
	if !left[ids[0]] || !left[ids[2]] || !left[ids[5]] {
		t.Fatalf("GC must spare champion, challenger and the newest; kept %v removed %v", left, removed)
	}
	if len(s.List()) != 3 || len(removed) != 3 {
		t.Fatalf("GC kept %d removed %d, want 3/3", len(s.List()), len(removed))
	}
	for _, id := range removed {
		if _, err := os.Stat(filepath.Join(s.Dir(), id+".bin")); !os.IsNotExist(err) {
			t.Fatalf("removed blob %s still on disk", id)
		}
		if _, _, err := s.Get(id); err == nil {
			t.Fatalf("removed version %s still resolvable", id)
		}
	}
}

// TestStoreGCCountsPointersTowardKeep: GC(N) keeps the newest N versions
// plus the pointers, so a champion that is itself the newest version uses
// up the one slot of GC(1).
func TestStoreGCCountsPointersTowardKeep(t *testing.T) {
	s := openTestStore(t)
	v1, err := s.Put([]byte("one"), Meta{Spec: "RF"})
	if err != nil {
		t.Fatal(err)
	}
	v2, err := s.Put([]byte("two"), Meta{Spec: "RF"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Promote(v2.ID); err != nil {
		t.Fatal(err)
	}
	removed, err := s.GC(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 1 || removed[0] != v1.ID {
		t.Fatalf("GC(1) removed %v, want [%s]", removed, v1.ID)
	}
	if left := s.List(); len(left) != 1 || left[0].ID != v2.ID {
		t.Fatalf("GC(1) left %v, want only %s", left, v2.ID)
	}
}

// validManifest is a one-version manifest as Put writes it.
const validManifest = `{"version": 1, "next": 2, "champion": "v0001", "versions": [
 {"id": "v0001", "spec": "RF", "train_from": 0, "train_to": 0,
  "sha256": "5e884898da28047151d0e56f8dc6292773603d0d6aabbdd62a11ef721d1542d8", "size": 8, "created_unix": 1}]}`

// TestStoreRefusesHostileManifest: Open and Reload refuse a manifest whose
// ids could escape the store directory or be reused by Put, or whose
// pointers or digests are dangling or malformed.
func TestStoreRefusesHostileManifest(t *testing.T) {
	cases := map[string]string{
		"path id":            strings.Replace(validManifest, `"id": "v0001"`, `"id": "../victim"`, 1),
		"next reuses an id":  strings.Replace(validManifest, `"next": 2`, `"next": 1`, 1),
		"next not positive":  `{"version": 1, "next": 0, "versions": []}`,
		"duplicate id":       strings.Replace(validManifest, `"versions": [`, `"versions": [{"id": "v1", "sha256": "5e884898da28047151d0e56f8dc6292773603d0d6aabbdd62a11ef721d1542d8"},`, 1),
		"unknown champion":   strings.Replace(validManifest, `"champion": "v0001"`, `"champion": "v0007"`, 1),
		"unknown challenger": strings.Replace(validManifest, `"champion"`, `"challenger": "v0002", "champion"`, 1),
		"short digest":       strings.Replace(validManifest, `"sha256": "5e88`, `"sha256": "5e8`, 1),
		"wrong version":      strings.Replace(validManifest, `"version": 1`, `"version": 2`, 1),
	}
	ok := openTestStore(t)
	if err := os.WriteFile(ok.manifestPath(), []byte(validManifest), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(ok.Dir()); err != nil {
		t.Fatalf("valid manifest refused: %v", err)
	}
	for name, body := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Open(dir); err == nil {
				t.Fatal("Open accepted the manifest")
			}
			s := openTestStore(t)
			if err := os.WriteFile(s.manifestPath(), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := s.Reload(); err == nil {
				t.Fatal("Reload accepted the manifest")
			}
		})
	}
}

// FuzzManifestLoad opens a store over arbitrary manifest bytes. Open must
// refuse them or load them, and Reload must agree. A loaded store must
// never resolve a blob path outside its directory, a Put must never reuse
// an id, and the state persisted by that Put must reopen unchanged.
func FuzzManifestLoad(f *testing.F) {
	f.Add([]byte(validManifest))
	f.Add([]byte(strings.Replace(validManifest, `"id": "v0001"`, `"id": "../victim"`, 1)))
	f.Add([]byte(strings.Replace(validManifest, `"next": 2`, `"next": 1`, 1)))
	f.Add([]byte(`{"version": 1, "next": 1, "versions": null}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, manifestName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		other := &Store{dir: dir}
		if reloadErr := other.Reload(); (reloadErr == nil) != (err == nil) {
			t.Fatalf("Open error %v but Reload error %v", err, reloadErr)
		}
		if err != nil {
			return
		}
		ids := map[string]bool{}
		for _, v := range s.List() {
			ids[v.ID] = true
			if filepath.Dir(s.blobPath(v.ID)) != filepath.Clean(dir) {
				t.Fatalf("version %q resolves outside the store: %s", v.ID, s.blobPath(v.ID))
			}
		}
		v, err := s.Put([]byte("fuzz model"), Meta{Spec: "RF"})
		if err != nil {
			return // ids exhausted
		}
		if ids[v.ID] || versionSeq(v.ID) <= 0 {
			t.Fatalf("Put reused or minted a bad id %q over %v", v.ID, ids)
		}
		re, err := Open(dir)
		if err != nil {
			t.Fatalf("reopen after Put: %v", err)
		}
		got, _ := json.Marshal(re.m)
		want, _ := json.Marshal(s.m)
		if !bytes.Equal(got, want) {
			t.Fatalf("reopened manifest %s, persisted %s", got, want)
		}
	})
}

func TestVersionSeqOrdersPastPadding(t *testing.T) {
	if versionSeq("v10000") <= versionSeq("v9999") {
		t.Fatal("v10000 must order newer than v9999 (lexical order would not)")
	}
	if versionSeq("v0001") != 1 || versionSeq("bogus") != 0 || versionSeq("") != 0 {
		t.Fatalf("versionSeq edge cases: %d %d %d", versionSeq("v0001"), versionSeq("bogus"), versionSeq(""))
	}
}

func TestRetrainerDriftTrigger(t *testing.T) {
	var mu sync.Mutex
	var reports []DriftReport
	r, err := NewRetrainer(RetrainerConfig{
		Train: func(ctx context.Context, rep DriftReport) error {
			mu.Lock()
			reports = append(reports, rep)
			mu.Unlock()
			return nil
		},
		Window:       256,
		MinObserve:   128,
		CheckEvery:   64,
		PSIThreshold: 0.25,
		Cooldown:     time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(1))
	ref := make([]float64, 1024)
	for i := range ref {
		ref[i] = 0.15 + 0.1*rng.Float64()
	}
	r.SetReference(ref)
	ctx := context.Background()

	// Same-distribution traffic: checks run (asynchronously — off the
	// scoring path), no trigger fires.
	for i := 0; i < 512; i++ {
		r.Observe(ctx, 0.15+0.1*rng.Float64())
	}
	checkDeadline := time.Now().Add(5 * time.Second)
	for r.Stats().Checks == 0 {
		if time.Now().After(checkDeadline) {
			t.Fatalf("no drift check ran on stable traffic: %+v", r.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if s := r.Stats(); s.Triggers != 0 {
		t.Fatalf("stable traffic: %+v, want no triggers", s)
	}

	// Shifted traffic: the window fills with a different distribution and
	// the PSI trigger fires exactly once (single-flight + cooldown).
	for i := 0; i < 512; i++ {
		r.Observe(ctx, 0.7+0.2*rng.Float64())
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if r.Stats().Retrains >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("drift trigger never fired: %+v", r.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(reports) != 1 {
		t.Fatalf("train ran %d times, want 1 (cooldown)", len(reports))
	}
	if !reports[0].Drifted || reports[0].PSI < 0.25 {
		t.Fatalf("trigger report %+v should carry the drifted PSI", reports[0])
	}
}

// TestRetrainerCoalescesDueChecks pins that a drift check falling due while
// another check is running is not lost. A large reference keeps the first
// check (over a stable window) busy while a shifted burst passes four due
// points; traffic then stops. Those due points must leave one trailing
// check that sees the shifted window and fires the trigger — otherwise the
// drift waits for CheckEvery more scores that never come.
func TestRetrainerCoalescesDueChecks(t *testing.T) {
	retrained := make(chan DriftReport, 4)
	r, err := NewRetrainer(RetrainerConfig{
		Train: func(ctx context.Context, rep DriftReport) error {
			retrained <- rep
			return nil
		},
		Window:     256,
		MinObserve: 128,
		CheckEvery: 128,
		Cooldown:   time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Sized so one check takes milliseconds (tens under -race): three
	// orders of magnitude longer than the burst below.
	rng := rand.New(rand.NewSource(1))
	ref := make([]float64, 1<<18)
	for i := range ref {
		ref[i] = 0.15 + 0.1*rng.Float64()
	}
	r.SetReference(ref)
	ctx := context.Background()

	for i := 0; i < 128; i++ {
		r.Observe(ctx, 0.15+0.1*rng.Float64())
	}
	// Feed the burst only once the first check holds its (stable) window.
	deadline := time.Now().Add(5 * time.Second)
	for r.Stats().Checks == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("first drift check never started: %+v", r.Stats())
		}
		time.Sleep(50 * time.Microsecond)
	}
	for i := 0; i < 512; i++ {
		r.Observe(ctx, 0.7+0.2*rng.Float64())
	}
	if s := r.Stats(); s.Checks != 1 || !r.checking.Load() {
		t.Fatalf("the first check ended before the burst did (%+v); the reference is too small to exercise a check in flight", s)
	}

	select {
	case rep := <-retrained:
		if !rep.Drifted || rep.Window != 256 {
			t.Fatalf("trigger report %+v, want a drifted full window", rep)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("a due check was dropped: the shifted window was never checked: %+v", r.Stats())
	}
	if s := r.Stats(); s.Checks != 2 {
		t.Fatalf("four due points during one check ran %d checks in all, want 2 (one trailing)", s.Checks)
	}
}

func TestRetrainerSingleFlightAndErrors(t *testing.T) {
	block := make(chan struct{})
	started := make(chan struct{}, 8)
	r, err := NewRetrainer(RetrainerConfig{
		Train: func(ctx context.Context, rep DriftReport) error {
			started <- struct{}{}
			<-block
			return context.Canceled
		},
		Cooldown: time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := DriftReport{Drifted: true, PSI: 1}
	if !r.TriggerAsync(context.Background(), rep) {
		t.Fatal("first trigger should start")
	}
	<-started
	if r.TriggerAsync(context.Background(), rep) {
		t.Fatal("second trigger must be refused while one is in flight")
	}
	if err := r.Retrain(context.Background(), rep); err == nil {
		t.Fatal("sync retrain must also refuse while one is in flight")
	}
	close(block)
	deadline := time.Now().Add(5 * time.Second)
	for r.Stats().TrainErrors == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("train error never recorded: %+v", r.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if s := r.Stats(); s.Retrains != 0 || s.Triggers != 1 {
		t.Fatalf("stats after failed round: %+v", s)
	}
}

func TestRetrainerCheckRequiresReference(t *testing.T) {
	r, err := NewRetrainer(RetrainerConfig{Train: func(context.Context, DriftReport) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Check(); err == nil {
		t.Fatal("check without reference should fail")
	}
	r.SetReference([]float64{0.1, 0.2})
	if _, err := r.Check(); err == nil {
		t.Fatal("check with empty window should fail")
	}
	if _, err := NewRetrainer(RetrainerConfig{}); err == nil {
		t.Fatal("nil Train should fail")
	}
}
