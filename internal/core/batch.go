package core

import (
	"context"
	"fmt"
	"sync"

	"bfast/internal/obs"
	"bfast/internal/sched"
	"bfast/internal/series"
	"bfast/internal/tile"
)

// BatchConfig configures DetectBatch.
type BatchConfig struct {
	// Workers is the number of goroutines (default GOMAXPROCS).
	Workers int
}

// Batch is a dense M×N pixel batch: M series of length N, row-major,
// NaN = missing. It is the in-memory layout the kernels stream over
// (one row per pixel, dates contiguous).
type Batch struct {
	M, N int
	Y    []float64
}

// NewBatch validates and wraps a flat pixel matrix.
func NewBatch(m, n int, y []float64) (*Batch, error) {
	if m < 0 || n < 0 || len(y) != m*n {
		return nil, fmt.Errorf("core: batch data length %d != M*N = %d*%d", len(y), m, n)
	}
	return &Batch{M: m, N: n, Y: y}, nil
}

// Row returns pixel i's series (a view, not a copy).
func (b *Batch) Row(i int) []float64 { return b.Y[i*b.N : (i+1)*b.N] }

// MaskCtx computes the batch's validity bitsets (bit t of pixel i set
// iff observation t is valid), in parallel over pixels. Every kernel
// pass of the tiled loop iterates these words instead of re-testing
// elements with math.IsNaN — the paper's "discover the NaN structure
// once" principle (§III-C) applied to the host path. The mask sweep is
// the first parallel pass of every batched detection, so it is
// cancellable: it returns a nil mask and ctx.Err() when cut short.
func (b *Batch) MaskCtx(ctx context.Context, workers int) (*series.BatchMask, error) {
	sctx, sp := obs.StartSpan(ctx, "kernel.mask")
	sp.SetAttr("pixels", b.M)
	defer sp.End()
	bm := &series.BatchMask{M: b.M, N: b.N, WordsPerRow: series.MaskWords(b.N)}
	bm.Words = make([]uint64, b.M*bm.WordsPerRow)
	err := sched.Shared().ForEachCtx(sctx, b.M, workers, sched.DefaultGrain, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			series.FillMask(b.Row(i), bm.Row(i))
		}
	})
	if err != nil {
		return nil, err
	}
	return bm, nil
}

// DetectBatch runs BFAST-Monitor over every pixel of the batch using the
// shared design matrix implied by opt (built internally). Its results
// are bit-identical to the scalar Detect oracle, pixel by pixel, for
// every worker count.
//
// Execution: each pixel's validity bitset is computed once (MaskCtx).
// Pixels are then binned by valid-count into tiles of tile.DefaultWidth
// pixels, each pixel of a tile is compacted from its row to its valid
// dates and values, and every kernel stage of a tile runs inside one
// steal unit on the shared work-stealing scheduler; pixels whose history
// masks are equal share one inverted normal matrix (maskclass.go).
//
// Cancellation: ctx is checked before every steal unit (one tile, one
// tile of class representatives, or one block of the mask sweep). When
// ctx is cancelled the remaining units are abandoned, in-flight units
// finish, and DetectBatch returns ctx.Err(); the partial results are
// discarded. An already-cancelled context schedules no units at all.
func DetectBatch(ctx context.Context, b *Batch, opt Options, cfg BatchConfig) ([]Result, error) {
	res, _, err := detectBatch(ctx, b, opt, cfg, false)
	return res, err
}

// DetectPopulated is DetectBatch over the populated dates of the batch,
// those on which at least one pixel is valid — the empty-slice removal
// of §III-D (cube.DropEmptySlices) without its copy. The mask pass finds
// them by OR-ing the validity words, each pixel's bits are compacted in
// place to the kept dates, and the tiled loop reads the values from
// b.Y through the kept-date list, so every pixel sums the same numbers
// in the same order as Detect on the compacted series. opt.History, the
// results' break offsets and Valid counts all refer to the compacted
// axis. It returns the kept dates (original indices, ascending); a batch
// with none returns no results, a nil list and no error, for the caller
// to report. Cancellation is as for DetectBatch, the compaction passes
// included.
func DetectPopulated(ctx context.Context, b *Batch, opt Options, cfg BatchConfig) ([]Result, []int, error) {
	return detectBatch(ctx, b, opt, cfg, true)
}

// detectBatch runs DetectBatch, or with dropEmpty DetectPopulated, which
// can validate opt only once it knows how many dates are kept.
func detectBatch(ctx context.Context, b *Batch, opt Options, cfg BatchConfig, dropEmpty bool) ([]Result, []int, error) {
	var (
		lambda float64
		err    error
	)
	if !dropEmpty {
		if lambda, err = fitSetup(opt, b.N); err != nil {
			return nil, nil, err
		}
	}
	if b.M == 0 {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		if dropEmpty {
			return nil, nil, nil
		}
		return []Result{}, nil, nil
	}
	ctx, sp := obs.StartSpan(ctx, "core.detect_batch")
	sp.SetAttr("pixels", b.M)
	sp.SetAttr("dates_nominal", b.N)
	defer sp.End()
	mask, err := b.MaskCtx(ctx, cfg.Workers)
	if err != nil {
		return nil, nil, err
	}
	var kept, dates []int // dates: the kept list when it skips any
	if dropEmpty {
		keep, err := populatedDates(ctx, mask, cfg.Workers)
		if err != nil {
			return nil, nil, err
		}
		if kept = series.AppendValidIndices(nil, keep, b.N); len(kept) == 0 {
			sp.SetAttr("dates_kept", 0)
			return nil, nil, nil
		}
		if lambda, err = fitSetup(opt, len(kept)); err != nil {
			return nil, nil, err
		}
		if len(kept) < b.N {
			if err := keepDates(ctx, mask, keep, cfg.Workers); err != nil {
				return nil, nil, err
			}
			dates = kept
		}
	}
	sp.SetAttr("dates_kept", mask.N)
	d, err := getDesign(opt, mask.N)
	if err != nil {
		return nil, nil, err
	}
	defer designPool.Put(d)
	statKernelPixels.Add(int64(b.M))
	res, err := batchTiled(ctx, b, mask, dates, &d.pp, opt, lambda, cfg, monitorTile)
	if err != nil {
		return nil, nil, err
	}
	return res, kept, nil
}

// fitSetup validates opt for series of n dates and returns the
// monitoring boundary's λ.
func fitSetup(opt Options, n int) (float64, error) {
	if err := opt.Validate(n); err != nil {
		return 0, err
	}
	return opt.ResolveLambda()
}

// designKey is what a batch's design tables depend on: the date count
// and the options DesignFor and the pair table read.
type designKey struct {
	n, history, harmonics int
	frequency             float64
	noTrend               bool
}

// designTables are the tables of one shape's design (tile.Pairs) and the
// key they were filled for.
type designTables struct {
	key designKey
	pp  tile.Pairs
}

// designPool holds released design tables. A call of the shape the last
// one had — a stream of small serving requests over one date axis —
// takes its tables as they are, as the paper's mkX builds X once for
// every pixel of a run; any other call refills the entry it drew in its
// buffers. The tables are read-only while a call holds its entry. The
// pool keeps no entry per shape: like every sync.Pool, it drops what is
// not reused within two collections.
var designPool sync.Pool

// getDesign returns pooled tables of the design DesignFor(opt, n) builds,
// with opt.History history dates, for the caller to put back into
// designPool. opt must have passed Validate(n), so a valid key is never
// the zero key of a fresh entry.
func getDesign(opt Options, n int) (*designTables, error) {
	key := designKey{n: n, history: opt.History, harmonics: opt.Harmonics, frequency: opt.Frequency, noTrend: opt.NoTrend}
	d, _ := designPool.Get().(*designTables)
	if d == nil {
		d = new(designTables)
	} else if d.key == key {
		return d, nil
	}
	x, err := DesignFor(opt, n)
	if err != nil {
		designPool.Put(d)
		return nil, err
	}
	d.pp.Fill(x, opt.History)
	d.key = key
	return d, nil
}

// populatedDates returns the bitset of the dates valid in at least one
// pixel of the mask: the OR of every row, reduced per worker and then
// across workers.
func populatedDates(ctx context.Context, mask *series.BatchMask, workers int) ([]uint64, error) {
	pool := sched.Shared()
	w := mask.WordsPerRow
	workers = pool.Workers(workers, mask.M)
	acc := make([]uint64, workers*w)
	err := pool.ForEachCtx(ctx, mask.M, workers, sched.DefaultGrain, func(id, lo, hi int) {
		or := acc[id*w : (id+1)*w]
		for i := lo; i < hi; i++ {
			for j, v := range mask.Row(i) {
				or[j] |= v
			}
		}
	})
	if err != nil {
		return nil, err
	}
	for j := w; j < len(acc); j++ {
		acc[j%w] |= acc[j]
	}
	return acc[:w], nil
}

// keepDates compacts every row of the mask in place to the dates set in
// keep, which become the mask's date axis.
func keepDates(ctx context.Context, mask *series.BatchMask, keep []uint64, workers int) error {
	err := sched.Shared().ForEachCtx(ctx, mask.M, workers, sched.DefaultGrain, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			series.KeepBits(mask.Row(i), keep)
		}
	})
	if err != nil {
		return err
	}
	mask.N = series.CountBits(keep, mask.N)
	return nil
}
