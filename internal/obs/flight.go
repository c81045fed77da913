package obs

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// Flight recorder: one GET, one tar.gz, everything a postmortem needs
// from a node — the metrics snapshot in both expositions, the recent
// trace ring, the persisted tail-sampled traces, the resolved serving
// config, process runtime state, any extra subsystem sections the
// caller attaches (NRT session summary, SLO objectives), and the latest
// anomaly-captured profiles. The bundle is assembled from live state at
// request time and streamed, so it works mid-incident: nothing in here
// takes the locks the hot path holds for more than a snapshot.

// FlightSources enumerates what goes into a bundle. Every field is
// optional; absent sources simply produce no member.
type FlightSources struct {
	// Registry contributes metrics.json and metrics.prom.
	Registry *Registry
	// Ring contributes traces_ring.json (recent in-memory traces).
	Ring *TraceRing
	// Tail contributes traces_persisted.jsonl (up to TailLimit
	// survivors read back from the rotated trace log).
	Tail *TailSampler
	// TailLimit caps the persisted traces bundled (0 = 200).
	TailLimit int
	// Config contributes config.json (any JSON-encodable value; the
	// server passes its resolved configuration).
	Config any
	// Sections contributes one <name>.json member per entry — subsystem
	// summaries like the NRT session list.
	Sections map[string]any
	// Files contributes raw file copies, bundle path → disk path
	// (captured profiles). Missing files are recorded in
	// the manifest as skipped rather than failing the bundle.
	Files map[string]string
}

// flightManifest is the bundle's self-description (manifest.json).
type flightManifest struct {
	GeneratedUnixNs int64    `json:"generated_unix_ns"`
	GoVersion       string   `json:"go_version"`
	Members         []string `json:"members"`
	Skipped         []string `json:"skipped,omitempty"`
}

// WriteFlight streams one flight-recorder bundle (tar.gz) to w.
func WriteFlight(w io.Writer, src FlightSources) error {
	gz := gzip.NewWriter(w)
	tw := tar.NewWriter(gz)
	man := flightManifest{
		GeneratedUnixNs: time.Now().UnixNano(),
		GoVersion:       runtime.Version(),
	}

	add := func(name string, data []byte) error {
		hdr := &tar.Header{
			Name: name, Mode: 0o644, Size: int64(len(data)),
			ModTime: time.Now(), Typeflag: tar.TypeReg,
		}
		if err := tw.WriteHeader(hdr); err != nil {
			return err
		}
		if _, err := tw.Write(data); err != nil {
			return err
		}
		man.Members = append(man.Members, name)
		return nil
	}
	addJSON := func(name string, v any) error {
		data, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			man.Skipped = append(man.Skipped, name)
			return nil
		}
		return add(name, data)
	}

	if src.Registry != nil {
		var buf bytes.Buffer
		if err := src.Registry.WriteJSON(&buf); err == nil {
			if err := add("metrics.json", buf.Bytes()); err != nil {
				return err
			}
		}
		buf = bytes.Buffer{}
		if err := src.Registry.WritePrometheus(&buf); err == nil {
			if err := add("metrics.prom", buf.Bytes()); err != nil {
				return err
			}
		}
	}
	if src.Ring != nil {
		if err := addJSON("traces_ring.json", src.Ring.Recent()); err != nil {
			return err
		}
	}
	if src.Tail != nil {
		limit := src.TailLimit
		if limit <= 0 {
			limit = 200
		}
		var buf bytes.Buffer
		for _, rec := range src.Tail.ReadBack(limit, time.Time{}) {
			line, err := json.Marshal(rec)
			if err != nil {
				continue
			}
			buf.Write(line)
			buf.WriteByte('\n')
		}
		if err := add("traces_persisted.jsonl", buf.Bytes()); err != nil {
			return err
		}
	}
	if src.Config != nil {
		if err := addJSON("config.json", src.Config); err != nil {
			return err
		}
	}
	if err := addJSON("runtime.json", runtimeSection()); err != nil {
		return err
	}
	names := make([]string, 0, len(src.Sections))
	for name := range src.Sections {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := addJSON(name+".json", src.Sections[name]); err != nil {
			return err
		}
	}
	fnames := make([]string, 0, len(src.Files))
	for name := range src.Files {
		fnames = append(fnames, name)
	}
	sort.Strings(fnames)
	for _, name := range fnames {
		data, err := os.ReadFile(src.Files[name])
		if err != nil {
			man.Skipped = append(man.Skipped, name)
			continue
		}
		if err := add(name, data); err != nil {
			return err
		}
	}

	if err := addJSON("manifest.json", man); err != nil {
		return err
	}
	if err := tw.Close(); err != nil {
		return err
	}
	return gz.Close()
}

// runtimeSection is the process snapshot bundled as runtime.json.
func runtimeSection() map[string]any {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return map[string]any{
		"go_version":         runtime.Version(),
		"goos":               runtime.GOOS,
		"goarch":             runtime.GOARCH,
		"gomaxprocs":         runtime.GOMAXPROCS(0),
		"num_cpu":            runtime.NumCPU(),
		"goroutines":         runtime.NumGoroutine(),
		"heap_alloc_bytes":   ms.HeapAlloc,
		"heap_sys_bytes":     ms.Sys,
		"gc_count":           ms.NumGC,
		"gc_pause_total_ns":  ms.PauseTotalNs,
		"last_gc_unix_ns":    ms.LastGC,
		"next_gc_heap_bytes": ms.NextGC,
	}
}

// ProfileFiles maps every profile in dir into bundle paths
// ("profiles/<base>") for FlightSources.Files — the glue between the
// capture watcher's directory and the bundle.
func ProfileFiles(dir string) map[string]string {
	if dir == "" {
		return nil
	}
	paths, _ := filepath.Glob(filepath.Join(dir, "*.pprof"))
	if len(paths) == 0 {
		return nil
	}
	out := make(map[string]string, len(paths))
	for _, p := range paths {
		out["profiles/"+filepath.Base(p)] = p
	}
	return out
}
