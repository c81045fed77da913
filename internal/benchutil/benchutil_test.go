package benchutil

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

func quickCfg(buf *bytes.Buffer) Config {
	return Config{Out: buf, SampleM: 256, Datasets: []string{"D2", "D6"}}
}

func TestTable1(t *testing.T) {
	var buf bytes.Buffer
	cfg := Config{Out: &buf, SampleM: 512}
	rows, err := Table1(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("expected 8 rows, got %d", len(rows))
	}
	for _, r := range rows {
		if diff := r.RealizedNaN - r.TargetNaN; diff > 0.12 || diff < -0.12 {
			t.Errorf("%s: realized NaN %.2f too far from target %.2f", r.Name, r.RealizedNaN, r.TargetNaN)
		}
	}
	if !strings.Contains(buf.String(), "TABLE I") {
		t.Fatal("report header missing")
	}
}

func TestFig6RowsAndOrdering(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Fig6(context.Background(), quickCfg(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 { // 2 datasets × 3 variants
		t.Fatalf("expected 6 rows, got %d", len(rows))
	}
	// Register-tiled must win on every dataset.
	byDS := map[string]map[string]float64{}
	for _, r := range rows {
		if byDS[r.Dataset] == nil {
			byDS[r.Dataset] = map[string]float64{}
		}
		byDS[r.Dataset][r.Variant] = r.GFlopsSp
	}
	for ds, m := range byDS {
		if m["register-tiled"] <= m["block-tiled"] || m["register-tiled"] <= m["naive"] {
			t.Errorf("%s: register tiling should win: %+v", ds, m)
		}
	}
}

func TestFig7RowsAndOrdering(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Fig7(context.Background(), quickCfg(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("expected 4 rows, got %d", len(rows))
	}
	for i := 0; i < len(rows); i += 2 {
		shared, global := rows[i], rows[i+1]
		ratio := global.Time.Seconds() / shared.Time.Seconds()
		if ratio < 3 {
			t.Errorf("%s: shared-mem speedup %.1f too small", shared.Dataset, ratio)
		}
	}
}

func TestFig8RowsAndOrdering(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Fig8(context.Background(), quickCfg(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 { // 2 datasets × (3 strategies + C)
		t.Fatalf("expected 8 rows, got %d", len(rows))
	}
	byDS := map[string]map[string]float64{}
	for _, r := range rows {
		if byDS[r.Dataset] == nil {
			byDS[r.Dataset] = map[string]float64{}
		}
		byDS[r.Dataset][r.Variant] = r.GFlopsSp
	}
	for ds, m := range byDS {
		if !(m["ours"] > m["rgtl-efseq"] && m["rgtl-efseq"] > m["full-efseq"]) {
			t.Errorf("%s: strategy ordering violated: %+v", ds, m)
		}
		if m["c-measured"] <= 0 {
			t.Errorf("%s: missing measured CPU row", ds)
		}
	}
}

func TestFig10Phases(t *testing.T) {
	var buf bytes.Buffer
	cfg := Config{Out: &buf, SampleM: 128}
	rows, err := Fig10(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("expected 3 scenarios, got %d", len(rows))
	}
	for _, r := range rows {
		if r.Phases.Kernel <= 0 || r.Phases.Transfer <= 0 {
			t.Errorf("%s: missing modeled phases: %+v", r.Scenario, r.Phases)
		}
		// Paper claim: transfer time smaller than kernel time.
		if r.Phases.Transfer >= r.Phases.Kernel {
			t.Errorf("%s: transfer %v should be below kernel %v",
				r.Scenario, r.Phases.Transfer, r.Phases.Kernel)
		}
	}
	if rows[1].Chunks != 50 || rows[2].Chunks != 50 {
		t.Fatal("large scenarios must use the paper's 50 chunks")
	}
}

func TestMapsScoring(t *testing.T) {
	var buf bytes.Buffer
	dir := t.TempDir()
	cfg := Config{Out: &buf, SampleM: 256, MapsDir: dir}
	res, err := Maps(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Breaks == 0 || res.NegativeBreaks == 0 {
		t.Fatalf("no breaks detected: %+v", res)
	}
	if res.Precision < 0.5 || res.Recall < 0.5 {
		t.Fatalf("detection quality too low: precision %.2f recall %.2f", res.Precision, res.Recall)
	}
	if res.TimingMapPath == "" || res.MagnitudePath == "" {
		t.Fatal("maps not written")
	}
}

// TestSpeedups checks the shape of the §V-B report. The ratios
// themselves are wall-clock comparisons between measured runs, which a
// shared host can invert at any commit; the benchmark ledger, with its
// repetitions and spread, is where speed is judged.
func TestSpeedups(t *testing.T) {
	var buf bytes.Buffer
	cfg := Config{Out: &buf, SampleM: 256}
	res, err := Speedups(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dataset != "D2" {
		t.Fatalf("dataset %q, want D2", res.Dataset)
	}
	for name, d := range map[string]time.Duration{
		"GPU modeled": res.GPUModeled, "CPU parallel": res.CPUParallel,
		"CPU single": res.CPUSingle, "R-style": res.RLike,
	} {
		if d <= 0 {
			t.Errorf("%s time %v, want positive", name, d)
		}
	}
	for name, r := range map[string]float64{
		"GPU vs CPU parallel": res.GPUvsCPUParallel, "GPU vs R-style": res.GPUvsRLike,
		"parallel speed-up": res.ParallelSpeedup,
	} {
		if !(r > 0) || math.IsInf(r, 0) {
			t.Errorf("%s ratio %v, want positive and finite", name, r)
		}
	}
	if buf.Len() == 0 {
		t.Fatal("no report printed")
	}
}

func TestSweep(t *testing.T) {
	var buf bytes.Buffer
	cfg := Config{Out: &buf, SampleM: 256}
	rows, err := Sweep(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 3 {
		t.Fatalf("expected ≥3 yearly periods, got %d", len(rows))
	}
	for _, r := range rows {
		if r.Dates-r.History != 23 {
			t.Errorf("period %s: monitoring span %d dates, want 23", r.Label, r.Dates-r.History)
		}
	}
}

func TestRunDispatch(t *testing.T) {
	var buf bytes.Buffer
	cfg := Config{Out: &buf, SampleM: 128, Datasets: []string{"D4"}}
	if err := Run(context.Background(), "table1", cfg); err != nil {
		t.Fatal(err)
	}
	if err := Run(context.Background(), "nope", cfg); err == nil {
		t.Fatal("unknown experiment must fail")
	}
}

func TestExperimentsListed(t *testing.T) {
	if len(Experiments()) != 15 {
		t.Fatalf("expected 15 experiments, got %d", len(Experiments()))
	}
}

func TestObsOverheadRows(t *testing.T) {
	var buf bytes.Buffer
	rows, err := ObsOverhead(context.Background(), Config{Out: &buf, SampleM: 256})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("expected 1 row, got %d", len(rows))
	}
	for _, r := range rows {
		if !r.Identical {
			t.Errorf("%s: instrumented run not bit-identical to plain", r.Strategy)
		}
		if r.Plain <= 0 || r.Instrumented <= 0 {
			t.Errorf("%s: degenerate timings %+v", r.Strategy, r)
		}
	}
	if !strings.Contains(buf.String(), "OBS OVERHEAD") {
		t.Fatal("report header missing")
	}
}

func TestRunJSONCollects(t *testing.T) {
	out, err := RunJSON(context.Background(), "tiles", Config{SampleM: 128})
	if err != nil {
		t.Fatal(err)
	}
	rows, ok := out["tiles"].([]TilesRow)
	if !ok || len(rows) != 1 {
		t.Fatalf("unexpected RunJSON payload: %#v", out)
	}
	if _, err := json.Marshal(out); err != nil {
		t.Fatalf("RunJSON payload must marshal: %v", err)
	}
	if _, err := RunJSON(context.Background(), "nope", Config{}); err == nil {
		t.Fatal("unknown experiment must fail")
	}
}

func TestGFlopsSpOf(t *testing.T) {
	v, err := GFlopsSpOf("D1")
	if err != nil {
		t.Fatal(err)
	}
	if v <= 0 {
		t.Fatal("non-positive spec flops")
	}
	if _, err := GFlopsSpOf("nope"); err == nil {
		t.Fatal("unknown dataset must fail")
	}
}
