// Command perfbench is the repository's end-to-end benchmark. It drives
// cmd/3dess server processes over loopback HTTP from one closed-loop load
// generator, checks every answer, and prints the metrics named in
// BENCHMARK.json as the last line of its output. With --trace 1 it instead
// times calls into each layer's public functions in-process and prints the
// per-layer metrics. See README.md.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	bin      string // the cmd/3dess binary
	root     string // the repository checkout (source provenance)
	work     string // scratch space inside the checkout
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output, in the format BENCHMARK.json names.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: ingest_upload, search_scan or cluster_mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	flag.IntVar(&cfg.seconds, "seconds", 10, "length of the timed window")
	flag.IntVar(&trace, "trace", 0, "1 = traced per-layer run instead of the end-to-end run")
	flag.StringVar(&cfg.bin, "bin", ".bench_build/3dess", "path of the built cmd/3dess binary")
	flag.StringVar(&cfg.root, "root", ".", "repository checkout the binary was built from")
	flag.StringVar(&cfg.work, "work", ".bench_build/work", "scratch directory for data, logs and traces")
	flag.Parse()
	cfg.trace = trace == 1
	w := findWorkload(cfg.workload)
	if w == nil || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds >= 1, --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	if _, err := os.Stat(cfg.bin); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: server binary: %v\n", err)
		os.Exit(1)
	}
	var (
		res    result
		report map[string]any
		err    error
	)
	if cfg.trace {
		res, report, err = runTraced(cfg, w)
	} else {
		res, report, err = runEndToEnd(cfg, w)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	report["provenance"] = provenance(cfg)
	rep, _ := json.MarshalIndent(report, "", "  ")
	fmt.Println(string(rep))
	if err := saveReport(cfg, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: saving report: %v\n", err)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// newRunDir makes this run's scratch directory.
func newRunDir(cfg config) (string, error) {
	dir := filepath.Join(cfg.work, fmt.Sprintf("%s-%d-%d", cfg.workload, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return dir, nil
}

// saveReport keeps the full report next to the scratch space.
func saveReport(cfg config, rep []byte) error {
	dir := filepath.Join(filepath.Dir(cfg.work), "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	mode := "e2e"
	if cfg.trace {
		mode = "trace"
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-%s-seed%d.json", cfg.workload, mode, cfg.seed)), rep, 0o644)
}

// provenance records what produced a result, so no number is read
// without its machine, build and inputs.
func provenance(cfg config) map[string]any {
	p := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"server_gomaxprocs": func() string {
			if v := os.Getenv("GOMAXPROCS"); v != "" {
				return v
			}
			return fmt.Sprintf("default (%d)", runtime.NumCPU())
		}(),
		"go_version": runtime.Version(),
		"goos_arch":  runtime.GOOS + "/" + runtime.GOARCH,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"workload":   cfg.workload,
		"trace":      cfg.trace,
		"time_utc":   time.Now().UTC().Format(time.RFC3339),
	}
	if out, err := exec.Command("git", "-C", cfg.root, "rev-parse", "HEAD").Output(); err == nil {
		p["git_sha"] = strings.TrimSpace(string(out))
		st, err := exec.Command("git", "-C", cfg.root, "status", "--porcelain").Output()
		p["git_dirty"] = err != nil || len(strings.TrimSpace(string(st))) > 0
	} else {
		p["git_sha"] = "unavailable (not a git checkout)"
	}
	if h, err := sourceHash(cfg.root); err == nil {
		p["source_sha256"] = h
	}
	return p
}

// sourceHash digests every Go source and module file of the checkout
// (outside build output), identifying the code even without git.
func sourceHash(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".bench_build" || d.Name() == ".git") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
