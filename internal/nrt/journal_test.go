package nrt

import (
	"context"
	"path/filepath"
	"testing"

	"bfast/internal/core"
	"bfast/internal/leakcheck"
	"bfast/internal/obs"
	"bfast/internal/state"
	"bfast/internal/workload"
)

// smallScene is testScene's shape at 64 pixels, so a test can restore
// once per byte of a journal frame.
func smallScene(t *testing.T) (*workload.Dataset, core.Options) {
	t.Helper()
	ds, err := workload.Generate(workload.Spec{
		M: 64, N: 228, History: 114,
		NaNFrac: 0.5, Mask: workload.MaskClouds,
		BreakFrac: 0.3, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds, core.DefaultOptions(114)
}

// observeEach feeds dates [from, to) one observe call per date.
func observeEach(t *testing.T, mg *Manager, id string, ds *workload.Dataset, from, to int) {
	t.Helper()
	for d := from; d < to; d++ {
		if _, err := mg.Observe(context.Background(), id, sceneDates(ds, d, d+1), 1); err != nil {
			t.Fatal(err)
		}
	}
}

// restoreFrom restores a fresh manager over store and returns it with
// the number of sessions restored and of restores failed.
func restoreFrom(t *testing.T, store state.Store) (*Manager, int, int64) {
	t.Helper()
	reg := obs.NewRegistry()
	mg := NewManager(Config{Store: store, Metrics: reg})
	got, err := mg.Restore(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return mg, got, reg.Counter("nrt.snapshots.failed").Value()
}

// finishAndCheck observes the rest of the series on a restored session
// in one call and checks the verdicts against the offline run.
func finishAndCheck(t *testing.T, mg *Manager, id string, ds *workload.Dataset, offline []core.Result, label string) {
	t.Helper()
	info, err := mg.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mg.Observe(context.Background(), id, sceneDates(ds, info.NextDate, ds.Spec.N), ds.Spec.N-info.NextDate)
	if err != nil {
		t.Fatal(err)
	}
	checkVerdicts(t, res.Verdicts, offline, label)
}

// TestRestartWithoutCloseBitIdentical: a manager that dies without
// Close leaves a base and a journal; a new manager replays the journal
// and continues bit-identically to the offline run. With an observe
// per date the run crosses a compaction (the journal outgrows the base
// and the next persist writes a base); with SnapshotEvery 3 the last
// two observes were never persisted and are lost, as the cadence
// allows.
func TestRestartWithoutCloseBitIdentical(t *testing.T) {
	leakcheck.Check(t)
	ds, opt := testScene(t)
	n, N := ds.Spec.History, ds.Spec.N
	offline := offlineDetect(t, ds, opt, N)
	ctx := context.Background()
	for _, tc := range []struct {
		every, observed, cursor int
	}{
		{every: 1, observed: 45, cursor: n + 45},
		{every: 3, observed: 47, cursor: n + 45},
	} {
		dir := filepath.Join(t.TempDir(), "snaps")
		storeA, err := state.NewFileStore(dir, obs.NewRegistry())
		if err != nil {
			t.Fatal(err)
		}
		mgA := NewManager(Config{Store: storeA, SnapshotEvery: tc.every, Metrics: obs.NewRegistry()})
		sum := fitScene(t, mgA, ds, opt)
		observeEach(t, mgA, sum.ID, ds, n, n+tc.observed)
		// The base moved past the fit: at least one compaction ran.
		blob, err := storeA.Load(ctx, sum.ID)
		if err != nil {
			t.Fatal(err)
		}
		base, err := state.DecodeSession(blob)
		if err != nil {
			t.Fatal(err)
		}
		if base.NextDate == n {
			t.Fatalf("every %d: %d observes never compacted the journal", tc.every, tc.observed)
		}
		// mgA is abandoned here, as a crash would leave it.

		storeB, err := state.NewFileStore(dir, obs.NewRegistry())
		if err != nil {
			t.Fatal(err)
		}
		mgB, restored, failed := restoreFrom(t, storeB)
		if restored != 1 || failed != 0 {
			t.Fatalf("every %d: restored %d, %d failed", tc.every, restored, failed)
		}
		info, err := mgB.Get(sum.ID)
		if err != nil {
			t.Fatal(err)
		}
		if info.NextDate != tc.cursor {
			t.Fatalf("every %d: restored cursor %d, want %d", tc.every, info.NextDate, tc.cursor)
		}
		// The restore wrote a fresh base; the journal restarts empty.
		if j, err := storeB.Journal(ctx, sum.ID); err != nil || len(j) != 0 {
			t.Fatalf("every %d: journal after restore: %d bytes, %v", tc.every, len(j), err)
		}
		observeEach(t, mgB, sum.ID, ds, tc.cursor, tc.cursor+3)
		finishAndCheck(t, mgB, sum.ID, ds, offline, "after restart without close")
	}
}

// journaled fits the small scene on a MemStore and observes dates
// [n, n+k) one call each, returning the store, the session ID, the
// fit's base blob and the journal the observes left.
func journaled(t *testing.T, ds *workload.Dataset, opt core.Options, k int) (*state.MemStore, string, []byte, []byte) {
	t.Helper()
	ctx := context.Background()
	n := ds.Spec.History
	store := state.NewMemStore()
	mg := NewManager(Config{Store: store, Metrics: obs.NewRegistry()})
	sum := fitScene(t, mg, ds, opt)
	base, err := store.Load(ctx, sum.ID)
	if err != nil {
		t.Fatal(err)
	}
	observeEach(t, mg, sum.ID, ds, n, n+k)
	journal, err := store.Journal(ctx, sum.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want := k * (8*ds.Spec.M + 40); len(journal) != want {
		t.Fatalf("%d observes journaled %d bytes, want %d", k, len(journal), want)
	}
	return store, sum.ID, base, journal
}

// storeWith returns a MemStore holding base and journal for id.
func storeWith(t *testing.T, id string, base, journal []byte) *state.MemStore {
	t.Helper()
	ctx := context.Background()
	s := state.NewMemStore()
	if err := s.Save(ctx, id, base); err != nil {
		t.Fatal(err)
	}
	if len(journal) > 0 {
		if err := s.Append(ctx, id, journal); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestRestoreTornJournal: a journal cut at any byte of its last frame
// restores the dates before it and continues bit-identically.
func TestRestoreTornJournal(t *testing.T) {
	leakcheck.Check(t)
	ds, opt := smallScene(t)
	n := ds.Spec.History
	offline := offlineDetect(t, ds, opt, ds.Spec.N)
	_, id, base, journal := journaled(t, ds, opt, 4)
	frame := len(journal) / 4
	for cut := len(journal) - frame; cut < len(journal); cut++ {
		mg, restored, failed := restoreFrom(t, storeWith(t, id, base, journal[:cut]))
		if restored != 1 || failed != 0 {
			t.Fatalf("cut at %d: restored %d, %d failed", cut, restored, failed)
		}
		info, err := mg.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if info.NextDate != n+3 {
			t.Fatalf("cut at %d: cursor %d, want %d", cut, info.NextDate, n+3)
		}
		finishAndCheck(t, mg, id, ds, offline, "torn journal")
	}
}

// TestRestoreCorruptJournal: a flipped byte anywhere in a frame that is
// not the last fails the session closed, counted in
// nrt.snapshots.failed; so does a journal whose first live frame does
// not start at the base's cursor.
func TestRestoreCorruptJournal(t *testing.T) {
	leakcheck.Check(t)
	ds, opt := smallScene(t)
	_, id, base, journal := journaled(t, ds, opt, 3)
	frame := len(journal) / 3
	for off := 0; off < frame; off++ {
		bad := append([]byte(nil), journal...)
		bad[off] ^= 0x04
		if _, restored, failed := restoreFrom(t, storeWith(t, id, base, bad)); restored != 0 || failed != 1 {
			t.Fatalf("flip at %d: restored %d, %d failed; want 0 and 1", off, restored, failed)
		}
	}
	if _, restored, failed := restoreFrom(t, storeWith(t, id, base, journal[frame:])); restored != 0 || failed != 1 {
		t.Fatalf("journal with a gap: restored %d, %d failed; want 0 and 1", restored, failed)
	}
}

// TestRestoreSkipsStaleFrames: frames the base already covers — left by
// a crash between a base write and the journal's removal — are skipped,
// and the frames after them replay.
func TestRestoreSkipsStaleFrames(t *testing.T) {
	leakcheck.Check(t)
	ds, opt := smallScene(t)
	n := ds.Spec.History
	ctx := context.Background()
	offline := offlineDetect(t, ds, opt, ds.Spec.N)
	store, id, _, stale := journaled(t, ds, opt, 3)

	mg, restored, failed := restoreFrom(t, store) // writes a base at n+3
	if restored != 1 || failed != 0 {
		t.Fatalf("restored %d, %d failed", restored, failed)
	}
	base, err := store.Load(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	observeEach(t, mg, id, ds, n+3, n+5)
	fresh, err := store.Journal(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	mg, restored, failed = restoreFrom(t, storeWith(t, id, base, append(append([]byte(nil), stale...), fresh...)))
	if restored != 1 || failed != 0 {
		t.Fatalf("stale then fresh frames: restored %d, %d failed", restored, failed)
	}
	info, err := mg.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if info.NextDate != n+5 {
		t.Fatalf("cursor %d, want %d", info.NextDate, n+5)
	}
	finishAndCheck(t, mg, id, ds, offline, "stale frames skipped")
}
