package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// manifestFile is the part of BENCHMARK.json the comparer needs.
type manifestFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// verdict of one (workload, metric) row.
type verdict string

const (
	better     verdict = "better"
	worse      verdict = "worse"
	within     verdict = "within-bound"
	unresolved verdict = "unresolved"
)

// judge compares candidate b with baseline a. change is b's relative
// move in the bad direction (positive = worse). A move past the bound is
// worse; otherwise a run-internal spread wider than the bound means the
// pair cannot show that nothing changed, and the row is unresolved, not
// unchanged.
func judge(m manifestMetric, a, b metric) (v verdict, change float64) {
	if a.Value == 0 {
		return unresolved, 0
	}
	change = (b.Value - a.Value) / math.Abs(a.Value)
	if m.Better == "higher" {
		change = -change
	}
	switch {
	case change > m.Bound:
		return worse, change
	case math.Max(a.IQRFrac, b.IQRFrac) > m.Bound:
		return unresolved, change
	case change < -m.Bound:
		return better, change
	}
	return within, change
}

// compareFiles prints one row per (workload, end-to-end metric) and
// returns an error when any row is worse, a workload fails more often,
// or two runs of the same inputs disagree on their results digest.
func compareFiles(w io.Writer, manifestPath, pathA, pathB string) error {
	var mf manifestFile
	if err := readJSON(manifestPath, &mf); err != nil {
		return err
	}
	var a, b suiteResult
	if err := readJSON(pathA, &a); err != nil {
		return err
	}
	if err := readJSON(pathB, &b); err != nil {
		return err
	}
	return compareSuites(w, mf, &a, &b)
}

func compareSuites(w io.Writer, mf manifestFile, a, b *suiteResult) error {
	sameInputs := a.Seed == b.Seed && a.Seconds == b.Seconds
	byName := make(map[string]*detail, len(b.Workloads))
	for _, d := range b.Workloads {
		byName[d.Workload] = d
	}
	bad := 0
	fmt.Fprintf(w, "%-13s %-16s %14s %14s %9s %7s %8s  %s\n",
		"workload", "metric", "a", "b", "change", "bound", "spread", "verdict")
	for _, da := range a.Workloads {
		db := byName[da.Workload]
		if db == nil {
			fmt.Fprintf(w, "%-13s missing from the second file\n", da.Workload)
			bad++
			continue
		}
		for _, m := range mf.EndToEnd {
			ma, mb := da.Metrics[m.Name], db.Metrics[m.Name]
			v, change := judge(m, ma, mb)
			if v == worse {
				bad++
			}
			fmt.Fprintf(w, "%-13s %-16s %14.6g %14.6g %+8.1f%% %6.0f%% %7.1f%%  %s\n",
				da.Workload, m.Name, ma.Value, mb.Value, 100*change, 100*m.Bound,
				100*math.Max(ma.IQRFrac, mb.IQRFrac), v)
		}
		fa, fb := failedFrac(da), failedFrac(db)
		v := within
		if fb > fa {
			v = worse
			bad++
		}
		fmt.Fprintf(w, "%-13s %-16s %14.6g %14.6g %9s %7s %8s  %s\n",
			da.Workload, "failed_frac", fa, fb, "", "0 abs", "", v)
		switch {
		case !sameInputs:
			fmt.Fprintf(w, "%-13s results_digest   not compared: seeds or run lengths differ\n", da.Workload)
		case da.ResultsDigest == db.ResultsDigest:
			fmt.Fprintf(w, "%-13s results_digest   identical (%s)\n", da.Workload, da.ResultsDigest)
		default:
			bad++
			fmt.Fprintf(w, "%-13s results_digest   DIFFERENT (%s vs %s)\n", da.Workload, da.ResultsDigest, db.ResultsDigest)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d rows are worse, missing or not bit-identical", bad)
	}
	return nil
}

func failedFrac(d *detail) float64 {
	if d.Attempted == 0 {
		return 0
	}
	return float64(d.Failed) / float64(d.Attempted)
}

// selfCheck runs the suite twice and compares the two runs: the
// benchmark agreeing with itself is the precondition for it saying
// anything about a change.
func selfCheck(ctx context.Context, manifestPath string, seed int64, seconds float64, outDir string) error {
	var mf manifestFile
	if err := readJSON(manifestPath, &mf); err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	var runs [2]*suiteResult
	for i, name := range []string{"selfcheck-a.json", "selfcheck-b.json"} {
		fmt.Printf("--- selfcheck run %d of 2\n", i+1)
		var err error
		if runs[i], err = runSuite(ctx, os.Stdout, seed, seconds, false, outDir, filepath.Join(outDir, name)); err != nil {
			return err
		}
	}
	fmt.Println("--- comparison")
	return compareSuites(os.Stdout, mf, runs[0], runs[1])
}
