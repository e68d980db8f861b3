package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// quartiles returns the first and third quartile of vs as Python's
// statistics.quantiles(vs, n=4) (the default, exclusive method) gives
// them: the driver measures spread this way, so calibration does too.
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := max(1, min(i*(n+1)/4, n-1))
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// calibrationCell is one (workload, end-to-end metric) pair of an A/A
// comparison: two sets of runs of the same code on the same seeds.
type calibrationCell struct {
	MedianA float64 `json:"median_a"`
	MedianB float64 `json:"median_b"`
	// SpreadA and SpreadB are (Q3-Q1)/median within each set.
	SpreadA float64 `json:"spread_a"`
	SpreadB float64 `json:"spread_b"`
	// Worse is how much worse set B's median is than set A's, as a share
	// of A's, in the metric's own direction (negative: B is better).
	Worse float64   `json:"worse"`
	Bound float64   `json:"bound"`
	OK    bool      `json:"ok"`
	A     []float64 `json:"a"`
	B     []float64 `json:"b"`
}

// runCalibration runs two sets of n untraced runs per workload, seeds
// 1..n, and writes the A/A table to <out>/aa.json. A pair is ok when both
// spreads (setup_s excepted, as in the contract) and the A-to-B shift stay
// within the metric's bound.
func runCalibration(cfg config, bf *benchmarkFile, names []string, n int) error {
	cfg.trace = false
	table := map[string]map[string]*calibrationCell{}
	failed := 0
	for _, name := range names {
		cfg.workload = name
		sets := [2]map[string][]float64{{}, {}}
		for set := range sets {
			for seed := int64(1); seed <= int64(n); seed++ {
				cfg.seed = seed
				out, err := runWorkload(cfg)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", name, seed, err)
				}
				if out.failed > 0 || len(out.problems) > 0 {
					return fmt.Errorf("%s seed %d: %d failed operations: %v", name, seed, out.failed, out.problems)
				}
				for _, d := range bf.EndToEnd {
					sets[set][d.Name] = append(sets[set][d.Name], out.values[d.Name])
				}
				fmt.Fprintf(os.Stderr, "calibrate %s set %d seed %d done\n", name, set, seed)
			}
		}
		table[name] = map[string]*calibrationCell{}
		for _, d := range bf.EndToEnd {
			a, b := sets[0][d.Name], sets[1][d.Name]
			c := &calibrationCell{MedianA: median(a), MedianB: median(b), Bound: *d.Bound, A: a, B: b}
			q1, q3 := quartiles(a)
			c.SpreadA = (q3 - q1) / c.MedianA
			q1, q3 = quartiles(b)
			c.SpreadB = (q3 - q1) / c.MedianB
			c.Worse = (c.MedianB - c.MedianA) / c.MedianA
			if d.Better == "higher" {
				c.Worse = -c.Worse
			}
			c.OK = c.Worse <= c.Bound && (d.Name == "setup_s" || (c.SpreadA <= c.Bound && c.SpreadB <= c.Bound))
			if !c.OK {
				failed++
			}
			table[name][d.Name] = c
			fmt.Printf("%s %s median %.6g / %.6g spread %.3f / %.3f worse %+.3f bound %.2f ok=%v\n",
				name, d.Name, c.MedianA, c.MedianB, c.SpreadA, c.SpreadB, c.Worse, c.Bound, c.OK)
		}
	}
	b, err := json.MarshalIndent(table, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(cfg.out, "aa.json"), append(b, '\n'), 0o644); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d (workload, metric) pairs outside their bound; see aa.json", failed)
	}
	return nil
}
