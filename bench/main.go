// Command bench is the repository's one benchmark: it builds cmd/tspdbd,
// starts it as a child process, drives it over loopback HTTP on two
// keep-alive connections with a seeded workload, checks the answers
// against a row-at-a-time oracle and prints every metric BENCHMARK.json
// declares. See README.md.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

func main() {
	var cfg config
	var trace int
	var root string
	var calibrate int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run (see BENCHMARK.json); \"all\" runs every one")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the datasets and the operation lists")
	flag.IntVar(&cfg.seconds, "seconds", 0, "length of the measured window (0: run_seconds of BENCHMARK.json)")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: also run the in-process ladder and report per-layer metrics")
	flag.Float64Var(&cfg.scale, "scale", 1, "scale dataset sizes, operation counts and warm-up (smoke tests use 0.02)")
	flag.StringVar(&root, "root", "", "repository root (default: found from the working directory)")
	flag.IntVar(&calibrate, "calibrate", 0, "run two sets of N runs per workload, seeds 1..N, and write aa.json")
	flag.Parse()
	cfg.trace = trace != 0
	if err := run(cfg, root, calibrate); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(cfg config, root string, calibrate int) error {
	root, err := findRoot(root)
	if err != nil {
		return err
	}
	bf, err := readBenchmarkFile(root)
	if err != nil {
		return err
	}
	if cfg.seconds <= 0 {
		cfg.seconds = bf.RunSeconds
	}
	// setup_s and build_tuples_per_s are medians over three set-ups; a
	// traced run reports neither and sets up once.
	cfg.setups = 3
	if cfg.trace {
		cfg.setups = 1
	}
	cfg.work = filepath.Join(root, ".bench_build", "work")
	cfg.out = filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return err
	}
	if cfg.tspdbd, err = buildDaemon(root, cfg.work); err != nil {
		return err
	}
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = names[:0]
		for _, w := range bf.Workloads {
			names = append(names, w.Name)
		}
	}
	if calibrate > 0 {
		return runCalibration(cfg, bf, names, calibrate)
	}
	commit := gitCommit(root)
	for _, name := range names {
		cfg.workload = name
		w, err := workloadByName(name)
		if err != nil {
			return err
		}
		out, err := runWorkload(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if err := out.save(cfg, commit); err != nil {
			return err
		}
		if err := out.print(os.Stdout, bf, cfg.trace, w); err != nil {
			return err
		}
	}
	return nil
}

// findRoot returns the directory holding BENCHMARK.json and cmd/tspdbd:
// the given one, or the nearest at or above the working directory.
func findRoot(given string) (string, error) {
	ok := func(dir string) bool {
		_, err1 := os.Stat(filepath.Join(dir, "BENCHMARK.json"))
		_, err2 := os.Stat(filepath.Join(dir, "cmd", "tspdbd", "main.go"))
		return err1 == nil && err2 == nil
	}
	if given != "" {
		abs, err := filepath.Abs(given)
		if err != nil {
			return "", err
		}
		if !ok(abs) {
			return "", fmt.Errorf("%s holds no BENCHMARK.json and cmd/tspdbd", abs)
		}
		return abs, nil
	}
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if ok(dir) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no directory at or above the working directory holds BENCHMARK.json and cmd/tspdbd")
		}
		dir = parent
	}
}

// buildDaemon compiles cmd/tspdbd from the checkout; the build is not
// part of any metric.
func buildDaemon(root, work string) (string, error) {
	bin := filepath.Join(work, "bin", "tspdbd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/tspdbd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build cmd/tspdbd: %w\n%s", err, out)
	}
	return bin, nil
}

// gitCommit names the commit under test when the checkout is a git
// repository (the driver's is not).
func gitCommit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
