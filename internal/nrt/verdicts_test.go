package nrt

import (
	"context"
	"math"
	"runtime"
	"sync"
	"testing"

	"bfast/internal/core"
	"bfast/internal/leakcheck"
	"bfast/internal/obs"
	"bfast/internal/workload"
)

// TestObserveReusesReleasedVerdicts: once a caller releases its
// results, a warm observe of an 8 192-px scene draws its verdicts
// (384 KB) from the pool and allocates under 64 KB in the manager.
func TestObserveReusesReleasedVerdicts(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool items at random")
	}
	const px, dates = 8192, 24
	ds, err := workload.Generate(workload.Spec{
		M: px, N: 2 * dates, History: dates,
		NaNFrac: 0.3, Mask: workload.MaskClouds, BreakFrac: 0.1, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions(dates)
	opt.Harmonics = 1
	mg := NewManager(Config{Metrics: obs.NewRegistry(), SnapshotEvery: -1})
	sum := fitScene(t, mg, ds, opt)
	ctx := context.Background()
	rows := sceneDates(ds, dates, 2*dates)
	observe := func(d int) {
		res, err := mg.Observe(ctx, sum.ID, rows[(d-dates)*px:(d-dates+1)*px], 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Verdicts) != px {
			t.Fatalf("%d verdicts, want %d", len(res.Verdicts), px)
		}
		res.Release()
		if res.Verdicts != nil {
			t.Fatal("Release left the verdicts in place")
		}
	}
	observe(dates) // warm the pool
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for d := dates + 1; d <= dates+runs; d++ {
		observe(d)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 64<<10 {
		t.Fatalf("a warm observe allocated %d B, want under 64 KB", per)
	}
}

// TestConcurrentObservesReleasing: two sessions over one scene observe
// concurrently, each releasing every result as soon as it has copied
// it, so their verdict slices cross between the sessions through the
// pool. Each stream must still read its own verdicts — the same on both
// sessions, date by date, and bit-identical to the offline refit at the
// end. Under -race this also checks that no slice is reused while read.
func TestConcurrentObservesReleasing(t *testing.T) {
	leakcheck.Check(t)
	ds, opt := testScene(t)
	n, N := ds.Spec.History, ds.Spec.N
	mg := NewManager(Config{Metrics: obs.NewRegistry()})
	ids := [2]string{fitScene(t, mg, ds, opt).ID, fitScene(t, mg, ds, opt).ID}
	var got [2][][]Verdict
	var errs [2]error
	var wg sync.WaitGroup
	for k, id := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for d := n; d < N; d++ {
				res, err := mg.Observe(context.Background(), id, sceneDates(ds, d, d+1), 1)
				if err != nil {
					errs[k] = err
					return
				}
				got[k] = append(got[k], append([]Verdict(nil), res.Verdicts...))
				res.Release()
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for d := range got[0] {
		for i, v := range got[0][d] {
			w := got[1][d][i]
			if v.Status != w.Status || v.Break != w.Break || v.BreakOffset != w.BreakOffset ||
				v.ValidMon != w.ValidMon || !sameBits(v.Process, w.Process) || !sameBits(v.Mean, w.Mean) {
				t.Fatalf("date %d pixel %d: sessions disagree: %+v vs %+v", n+d, i, v, w)
			}
		}
	}
	checkVerdicts(t, got[0][len(got[0])-1], offlineDetect(t, ds, opt, N), "full series")
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
