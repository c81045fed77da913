// Command bfast-bench regenerates the tables and figures of the paper's
// evaluation (Table I, Figs. 6/7/8/10, the change maps of Figs. 3/9, the
// §V-B speed-ups and the §V-C monitoring-period sweep), printing the
// paper's reported values next to the reproduced ones. See DESIGN.md for
// the experiment index and EXPERIMENTS.md for recorded results.
//
// Usage:
//
//	bfast-bench -exp all
//	bfast-bench -exp fig6 -sample 8192 -datasets D1,D6
//	bfast-bench -exp claims -json > bench.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"

	"bfast/internal/benchutil"
	"bfast/internal/gpusim"
	"bfast/internal/tile"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: "+strings.Join(benchutil.Experiments(), ", ")+", or all")
		sample   = flag.Int("sample", 4096, "pixel sample size per dataset")
		datasets = flag.String("datasets", "", "comma-separated Table I subset (default all)")
		device   = flag.String("device", "rtx2080ti", "simulated device: rtx2080ti or titanz")
		workers  = flag.Int("workers", 0, "host workers for measured baselines (0 = all cores)")
		mapsDir  = flag.String("maps-dir", "", "write PPM/PGM maps here (maps experiment)")
		asJSON   = flag.Bool("json", false, "emit structured rows as JSON on stdout instead of tables")
	)
	flag.Parse()

	cfg := benchutil.Config{
		Out:     os.Stdout,
		SampleM: *sample,
		Workers: *workers,
		MapsDir: *mapsDir,
	}
	switch *device {
	case "rtx2080ti":
		cfg.Profile = gpusim.RTX2080Ti()
	case "titanz":
		cfg.Profile = gpusim.TitanZ()
	default:
		fmt.Fprintf(os.Stderr, "bfast-bench: unknown device %q\n", *device)
		os.Exit(2)
	}
	if *datasets != "" {
		cfg.Datasets = strings.Split(*datasets, ",")
	}
	// The experiments run on the ctx-first hot path, so Ctrl-C/SIGTERM
	// cancels the in-flight batched detection at steal-unit granularity
	// instead of killing the process mid-measurement.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *asJSON {
		rows, err := benchutil.RunJSON(ctx, *exp, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bfast-bench:", err)
			os.Exit(1)
		}
		// The config section records *effective* values, not the raw flags:
		// workers=0 means "all cores" at run time and the default tile
		// width lives in core, so resolving both here keeps the report
		// self-describing when read on another machine.
		effWorkers := *workers
		if effWorkers <= 0 {
			effWorkers = runtime.GOMAXPROCS(0)
		}
		report := struct {
			Experiment string `json:"experiment"`
			SampleM    int    `json:"sample_m"`
			// SimulatedDevice is the gpusim profile behind modeled rows;
			// Host is where the measured rows actually ran.
			SimulatedDevice string         `json:"simulated_device"`
			Host            hostInfo       `json:"host"`
			Workers         int            `json:"workers"`
			TileWidth       int            `json:"tile_width"`
			Results         map[string]any `json:"results"`
		}{*exp, *sample, cfg.Profile.Name, collectHostInfo(), effWorkers,
			tile.DefaultWidth, rows}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintln(os.Stderr, "bfast-bench:", err)
			os.Exit(1)
		}
		return
	}
	if err := benchutil.Run(ctx, *exp, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "bfast-bench:", err)
		os.Exit(1)
	}
}
