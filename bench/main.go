// Command bench is the repository's benchmark: five fixed workloads,
// the same end-to-end metrics on each, and a traced run that times the
// calls into every layer's public API. README.md has the tables.
//
//	go run ./bench                       all workloads, end to end
//	go run ./bench -trace 1              all workloads, per-layer
//	go run ./bench -workload batch-iid   one workload in this process
//	go run ./bench -json a.json          also save the results
//	go run ./bench -compare a.json b.json
//	go run ./bench -selfcheck            run twice, compare the two
//
// Run from the repository root. With -workload the last line of standard
// output is the one-object result BENCHMARK.json's contract asks for.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
)

// defaultSeconds is BENCHMARK.json's run_seconds: the run length whose
// op counts the tail percentiles in workloads.go were chosen for.
const defaultSeconds = 12

func main() {
	workload := flag.String("workload", "", "run this one workload in this process (default: all, each in its own child process)")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", defaultSeconds, "run length the fixed op counts are scaled to (counts = frozen counts x seconds/25)")
	trace := flag.Int("trace", 0, "1 = the traced run: per-layer metrics and bench/out/trace-<workload>.json")
	outDir := flag.String("out", filepath.Join("bench", "out"), "directory for trace files, server logs and NRT state")
	jsonOut := flag.String("json", "", "suite mode: also write every workload's results to this file")
	detailOut := flag.String("detail", "", "with -workload: also write the run's full record to this file")
	compare := flag.Bool("compare", false, "compare two -json files: bench -compare a.json b.json")
	selfcheck := flag.Bool("selfcheck", false, "run the suite twice and compare the two runs")
	manifest := flag.String("manifest", "BENCHMARK.json", "where -compare and -selfcheck read the bounds")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two files")
			break
		}
		err = compareFiles(os.Stdout, *manifest, flag.Arg(0), flag.Arg(1))
	case *selfcheck:
		err = selfCheck(ctx, *manifest, *seed, *seconds, *outDir)
	case *workload == "":
		if err = os.MkdirAll(*outDir, 0o755); err == nil {
			_, err = runSuite(ctx, os.Stdout, *seed, *seconds, *trace != 0, *outDir, *jsonOut)
		}
	default:
		err = runChild(ctx, runOpts{workload: *workload, seed: *seed, seconds: *seconds,
			pxDiv: 1, trace: *trace != 0, outDir: *outDir}, *detailOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runChild runs one workload in this process and prints its numbers,
// then the one-line result.
func runChild(ctx context.Context, o runOpts, detailOut string) error {
	if o.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	det, err := runWorkload(ctx, o)
	if err != nil {
		return err
	}
	printHost(os.Stdout, det.Host)
	printDetail(os.Stdout, det)
	if detailOut != "" {
		if err := writeJSON(detailOut, det); err != nil {
			return err
		}
	}
	line, err := json.Marshal(resultLine(det))
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !det.correct() {
		return fmt.Errorf("%s: %d of %d ops failed: %s", det.Workload, det.Failed, det.Attempted, det.FirstError)
	}
	return nil
}

// result is the object the acceptance driver reads off the last line.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]wireMetric `json:"metrics"`
}

type wireMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func resultLine(det *detail) result {
	r := result{Correct: det.correct(), Attempted: det.Attempted, Failed: det.Failed,
		Metrics: make(map[string]wireMetric, len(det.Metrics))}
	for name, m := range det.Metrics {
		r.Metrics[name] = wireMetric{m.Value, m.Unit}
	}
	return r
}

func printHost(w io.Writer, h hostInfo) {
	fmt.Fprintf(w, "host: commit=%s nproc=%d GOMAXPROCS=%d %s cpu=%q llc=%dKiB\n",
		h.Commit, h.NProc, h.GOMAXPROCS, h.GoVersion, h.CPUModel, h.LLCBytes>>10)
}

// suiteResult is what -json writes and -compare reads.
type suiteResult struct {
	Host      hostInfo  `json:"host"`
	Seed      int64     `json:"seed"`
	Seconds   float64   `json:"seconds"`
	Trace     bool      `json:"trace"`
	Workloads []*detail `json:"workloads"`
}

// runSuite runs every workload in its own child process (this binary
// again, with -workload), so that peak RSS and the CPU and allocation
// counters belong to one workload.
func runSuite(ctx context.Context, w io.Writer, seed int64, seconds float64, trace bool, outDir, jsonOut string) (*suiteResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	res := &suiteResult{Host: readHost(), Seed: seed, Seconds: seconds, Trace: trace}
	printHost(w, res.Host)
	failed := 0
	for _, d := range defs {
		detailPath := filepath.Join(outDir, "detail-"+d.Name+".json")
		traceArg := "0"
		if trace {
			traceArg = "1"
		}
		cmd := exec.CommandContext(ctx, exe, "-workload", d.Name,
			"-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
			"-trace", traceArg, "-out", outDir, "-detail", detailPath)
		cmd.Stderr = os.Stderr
		_, runErr := cmd.Output()
		var det detail
		if err := readJSON(detailPath, &det); err != nil {
			if runErr != nil {
				return nil, fmt.Errorf("%s: %w", d.Name, runErr)
			}
			return nil, err
		}
		printDetail(w, &det)
		res.Workloads = append(res.Workloads, &det)
		if runErr != nil || !det.correct() {
			failed++
		}
	}
	if jsonOut != "" {
		if err := writeJSON(jsonOut, res); err != nil {
			return nil, err
		}
	}
	if failed > 0 {
		return res, fmt.Errorf("%d workloads failed", failed)
	}
	return res, nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
