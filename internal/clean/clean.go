// Package clean implements the C-GARCH model of Section V: an enhancement of
// the ARMA-GARCH metric that keeps the GARCH volatility estimate sane when
// the input stream contains erroneous values (significant outliers, as
// opposed to merely imprecise values).
//
// Three pieces cooperate:
//
//   - The Successive Variance Reduction filter (Algorithm 2) removes the
//     points whose deletion reduces the sample variance the most, one at a
//     time, until the variance drops below the threshold SVmax; removed
//     points are reconstructed by interpolation. The leave-one-out variances
//     use the incremental power-sum identities of Steps 8-9, keeping the
//     filter O(K^2).
//   - LearnSVMax estimates SVmax from a clean sample as the maximum sample
//     variance over all sliding windows of size ocmax (Section V-B).
//   - Processor is the streaming C-GARCH state machine: each incoming raw
//     value is checked against the kappa-scaled bounds of the inner metric;
//     values outside are marked erroneous and replaced with the inferred
//     value r̂_t, and a run of more than ocmax consecutive marks is treated
//     as a trend change, at which point the recent raw values are re-adopted
//     after being scrubbed by the SVR filter.
package clean

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/density"
	"repro/internal/obs"
	"repro/internal/stat"
)

// Errors reported by the package.
var (
	ErrBadArg     = errors.New("clean: invalid argument")
	ErrShortInput = errors.New("clean: input too short")
)

// SVRResult reports the outcome of the Successive Variance Reduction filter.
type SVRResult struct {
	Cleaned  []float64 // values after deletion + interpolation
	Replaced []int     // indices that were marked erroneous and reconstructed
}

// SVRFilter runs Algorithm 2 on vs with variance threshold svMax: while the
// sample variance SV(V) exceeds svMax, it deletes the point whose removal
// yields the greatest variance reduction and reconstructs it by linear
// interpolation of its neighbours (extrapolation at the edges). The input is
// not modified.
func SVRFilter(vs []float64, svMax float64) (*SVRResult, error) {
	if svMax < 0 || math.IsNaN(svMax) {
		return nil, fmt.Errorf("%w: svMax=%v", ErrBadArg, svMax)
	}
	k := len(vs)
	if k < 3 {
		return nil, fmt.Errorf("%w: K=%d", ErrShortInput, k)
	}
	out := make([]float64, k)
	copy(out, vs)
	res := &SVRResult{Cleaned: out}

	// At most K-2 reconstructions keep the algorithm well defined (we need
	// at least two genuine points to interpolate from).
	replaced := make(map[int]bool)
	for iter := 0; iter < k-2; iter++ {
		ms := stat.NewMomentSums(out)
		if ms.SampleVariance() <= svMax {
			break
		}
		// Find the point whose deletion minimises the remaining variance
		// (equivalently, maximises the variance reduction). Steps 6-14.
		bestVar := math.Inf(1)
		bestIdx := -1
		for i, v := range out {
			if replaced[i] {
				continue // already reconstructed; deleting it again is moot
			}
			loo := ms.LeaveOneOutVariance(v)
			if loo < bestVar {
				bestVar = loo
				bestIdx = i
			}
		}
		if bestIdx < 0 {
			break
		}
		// Steps 15-19: delete and reconstruct.
		out[bestIdx] = reconstruct(out, bestIdx)
		replaced[bestIdx] = true
		res.Replaced = append(res.Replaced, bestIdx)
	}
	return res, nil
}

// reconstruct interpolates index i from its neighbours, or extrapolates
// linearly at the edges (Step 19 of Algorithm 2).
func reconstruct(vs []float64, i int) float64 {
	n := len(vs)
	switch {
	case i > 0 && i < n-1:
		return (vs[i-1] + vs[i+1]) / 2
	case i == 0:
		if n >= 3 {
			return 2*vs[1] - vs[2]
		}
		return vs[1]
	default: // i == n-1
		if n >= 3 {
			return 2*vs[n-2] - vs[n-3]
		}
		return vs[n-2]
	}
}

// LearnSVMax estimates the variance threshold SVmax from a clean sample: the
// maximum sample variance observed over all sliding windows of size ocmax
// (Section V-B). This captures the largest dispersion a genuine trend change
// can produce, so anything above it indicates erroneous values.
func LearnSVMax(cleanSample []float64, ocmax int) (float64, error) {
	if ocmax < 2 {
		return 0, fmt.Errorf("%w: ocmax=%d", ErrBadArg, ocmax)
	}
	if len(cleanSample) < ocmax {
		return 0, fmt.Errorf("%w: sample %d < ocmax %d", ErrShortInput, len(cleanSample), ocmax)
	}
	vars, err := stat.RollingVariance(cleanSample, ocmax)
	if err != nil {
		return 0, err
	}
	maxVar := 0.0
	for _, v := range vars {
		if v > maxVar {
			maxVar = v
		}
	}
	return maxVar, nil
}

// Config parameterises the streaming C-GARCH processor.
type Config struct {
	// Metric is the inner dynamic density metric (normally ARMA-GARCH).
	Metric density.Metric
	// H is the sliding-window length.
	H int
	// OCMax is the trend-change run length: more than OCMax consecutive
	// out-of-bounds values indicate the trend moved rather than errors
	// (Section V-A; the paper suggests twice the longest error burst).
	OCMax int
	// SVMax is the variance threshold of the SVR filter, learned from clean
	// data via LearnSVMax.
	SVMax float64
}

// StepResult describes the processing of one streamed raw value.
type StepResult struct {
	Index       int                // 0-based index of the value within the stream
	Raw         float64            // the raw value as received
	Cleaned     float64            // the value admitted into the model window
	Erroneous   bool               // whether the value was marked erroneous
	TrendChange bool               // whether this step triggered trend re-adjustment
	Inference   *density.Inference // the inference that produced the bounds
}

// Processor is the streaming C-GARCH state machine.
type Processor struct {
	cfg    Config
	window []float64 // cleaned history (last H values)
	recent []float64 // raw values of the current suspicious run (<= OCMax+1)
	run    int       // consecutive erroneous marks
	steps  int
}

// NewProcessor validates cfg and returns a Processor primed with the warm-up
// window (the first H raw values, assumed clean enough to start from, as in
// the paper's experimental setup which starts execution at t > H).
func NewProcessor(cfg Config, warmup []float64) (*Processor, error) {
	if cfg.Metric == nil {
		return nil, fmt.Errorf("%w: nil metric", ErrBadArg)
	}
	if cfg.H < cfg.Metric.MinWindow() {
		return nil, fmt.Errorf("%w: H=%d below metric minimum %d", ErrBadArg, cfg.H, cfg.Metric.MinWindow())
	}
	if cfg.OCMax < 1 {
		return nil, fmt.Errorf("%w: ocmax=%d", ErrBadArg, cfg.OCMax)
	}
	if cfg.SVMax < 0 || math.IsNaN(cfg.SVMax) {
		return nil, fmt.Errorf("%w: svmax=%v", ErrBadArg, cfg.SVMax)
	}
	if len(warmup) != cfg.H {
		return nil, fmt.Errorf("%w: warmup %d != H %d", ErrShortInput, len(warmup), cfg.H)
	}
	p := &Processor{cfg: cfg, window: make([]float64, cfg.H)}
	copy(p.window, warmup)
	return p, nil
}

// Window returns a copy of the current cleaned sliding window.
func (p *Processor) Window() []float64 {
	out := make([]float64, len(p.window))
	copy(out, p.window)
	return out
}

// Clone returns an independent copy of the processor's state — window,
// suspicious run, run count and step count — sharing only the immutable
// configuration. Stepping the copy leaves p untouched, which is how a
// caller prepares a batch of values whole and adopts the copy only once
// the batch has committed.
func (p *Processor) Clone() *Processor {
	return &Processor{
		cfg:    p.cfg,
		window: append([]float64(nil), p.window...),
		recent: append([]float64(nil), p.recent...),
		run:    p.run,
		steps:  p.steps,
	}
}

// Step processes the next raw value r_t.
func (p *Processor) Step(rt float64) (*StepResult, error) {
	res, commit, err := p.Prepare(rt)
	if err != nil {
		return nil, err
	}
	commit()
	return res, nil
}

// Prepare computes the full outcome of ingesting r_t — inference, cleaning
// decision, trend re-adjustment — without mutating any processor state. The
// returned commit applies the step; discarding it abandons the step with the
// processor untouched. Step is Prepare followed by its commit; a caller
// that must not advance the processor until its own fallible work has
// succeeded for a whole batch of values steps a Clone instead.
func (p *Processor) Prepare(rt float64) (*StepResult, func(), error) {
	mspan := obs.StartSpan(metModelStage)
	inf, err := p.cfg.Metric.Infer(p.window)
	mspan.End()
	if err != nil {
		return nil, nil, err
	}
	defer obs.StartSpan(metCleanStage).End()
	res := &StepResult{Index: p.steps, Raw: rt, Inference: inf}

	outOfBounds := rt > inf.UB || rt < inf.LB || math.IsNaN(rt) || math.IsInf(rt, 0)
	if !outOfBounds {
		// In bounds: admit the raw value, clear any suspicious run.
		res.Cleaned = rt
		return res, func() {
			p.steps++
			p.run = 0
			p.recent = p.recent[:0]
			p.push(rt)
		}, nil
	}

	// Out of bounds: tentatively mark erroneous and substitute r̂_t.
	res.Erroneous = true
	res.Cleaned = inf.RHat
	if p.run+1 <= p.cfg.OCMax {
		return res, func() {
			p.steps++
			p.run++
			p.recent = append(p.recent, rt)
			p.push(inf.RHat)
		}, nil
	}

	// More than OCMax consecutive marks: the underlying trend has changed
	// (Section V-A). Re-adopt the recent raw values (including r_t) after
	// scrubbing them with the SVR filter so genuine errors inside the run
	// are not adopted. The scrub runs on a copy here; commit writes it into
	// the window tail.
	adopted := p.planTrend(rt)
	res.TrendChange = true
	res.Erroneous = false
	res.Cleaned = adopted[len(adopted)-1]
	return res, func() {
		p.steps++
		// The last len(adopted) window slots currently hold substituted r̂
		// values from the suspicious period; overwrite them with the
		// scrubbed raw run.
		copy(p.window[len(p.window)-len(adopted):], adopted)
		p.run = 0
		p.recent = p.recent[:0]
	}, nil
}

// planTrend returns the scrubbed suspicious run (p.recent plus rt, SVR
// filtered, truncated to the window length) without touching any state.
func (p *Processor) planTrend(rt float64) []float64 {
	run := make([]float64, 0, len(p.recent)+1)
	run = append(run, p.recent...)
	run = append(run, rt)
	if len(run) >= 3 && p.cfg.SVMax > 0 {
		if sv, err := SVRFilter(run, p.cfg.SVMax); err == nil {
			run = sv.Cleaned
		}
	}
	if k, n := len(run), len(p.window); k > n {
		run = run[k-n:]
	}
	return run
}

// push appends v to the cleaned window, dropping the oldest value.
func (p *Processor) push(v float64) {
	copy(p.window, p.window[1:])
	p.window[len(p.window)-1] = v
}

// RunResult summarises processing a whole series through the C-GARCH
// processor.
type RunResult struct {
	Steps        []*StepResult
	Cleaned      []float64 // cleaned value per processed index
	DetectedIdx  []int     // indices marked erroneous
	TrendChanges []int     // indices where trend re-adjustment fired
}

// Run processes every value of stream (after the warm-up prefix already
// consumed by NewProcessor) and collects the outcomes.
func (p *Processor) Run(stream []float64) (*RunResult, error) {
	out := &RunResult{}
	for _, rt := range stream {
		st, err := p.Step(rt)
		if err != nil {
			return nil, err
		}
		out.Steps = append(out.Steps, st)
		out.Cleaned = append(out.Cleaned, st.Cleaned)
		if st.Erroneous {
			out.DetectedIdx = append(out.DetectedIdx, st.Index)
		}
		if st.TrendChange {
			out.TrendChanges = append(out.TrendChanges, st.Index)
		}
	}
	return out, nil
}

// Metric adapts C-GARCH to the density.Metric interface for window-at-a-time
// evaluation (e.g. in the density-distance experiments): each window is
// scrubbed by the SVR filter before being handed to the inner metric.
type Metric struct {
	Inner density.Metric
	SVMax float64
}

// Name implements density.Metric.
func (m *Metric) Name() string { return "C-GARCH" }

// MinWindow implements density.Metric.
func (m *Metric) MinWindow() int { return m.Inner.MinWindow() }

// Infer implements density.Metric.
func (m *Metric) Infer(window []float64) (*density.Inference, error) {
	if len(window) >= 3 && m.SVMax > 0 {
		if sv, err := SVRFilter(window, m.SVMax); err == nil {
			window = sv.Cleaned
		}
	}
	return m.Inner.Infer(window)
}

var _ density.Metric = (*Metric)(nil)
