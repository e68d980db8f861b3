package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/clean"
	"repro/internal/dataset"
	"repro/internal/timeseries"
	"repro/internal/view"
)

// Parameters every workload shares: the paper's defaults (Section VII).
const (
	window        = 90   // sliding-window length H
	cacheDistance = 0.01 // sigma-cache Hellinger constraint
	sigmaMin      = 1e-3 // online sigma-cache band
	sigmaMax      = 50
	cleanOCMax    = 7 // C-GARCH trend-change run length
)

var defaultOmega = view.Omega{Delta: 0.5, N: 8}

// workload is the static description of one benchmark workload. Sizes are
// at -scale 1 and were chosen so that three set-ups, a warm-up, the
// measured window and the checks of one run fit in about 25 s on two
// cores (the contract allows 92 runs in 57 minutes), not to match the
// paper's dataset sizes; see README.md.
type workload struct {
	name    string
	durable bool // tspdbd -data-dir D -fsync=true; in-memory otherwise
	car     bool // car-data instead of campus-data
	tables  []string
	// history points are uploaded per table; the offline CREATE VIEW
	// covers the last viewTuples timestamps of them (0: every timestamp
	// past the first window).
	history    int
	viewTuples int
	omega      view.Omega
	stream     bool // open one stream per table after the offline build
	outliers   bool // dataset.InjectErrors on the data, C-GARCH cleaning on the stream
	paced      bool // a reader beside an open-loop writer (and so a third latency class, an idle baseline, lateness)
	preIngest  int  // points per table ingested during set-up
	// warm is how long the closed loops run before the measured window
	// opens. Open-loop connections start with the window, so on mixed_rw
	// the tail of the warm-up is the reader's idle baseline.
	warm time.Duration
	// classes label the primary and secondary latency class.
	classes [2]string
	// ladder names the view the traced run downloads and replays reads
	// on, and the ingest batch size and http rungs matching the classes.
	ladderView  string
	ladderBatch int
	ladderHTTP  [2]string
	plan        func(w *workload, in *inputs, rng *rand.Rand, scale float64) []connPlan
}

// connPlan is the operation list of one connection. Closed-loop lists are
// either cyclic (reads) or consumable (ingest); an open-loop list is sent
// at a fixed period from the start of the measured window.
type connPlan struct {
	ops    []op
	cyclic bool
	period time.Duration // > 0: open loop
	keep   bool          // retain response bodies (ingest acknowledgements)
	table  string        // ingest target, for the crash check
}

// inputs is everything derived from the seed: the data and the requests.
type inputs struct {
	series  map[string]*timeseries.Series
	svMax   float64 // learned C-GARCH variance threshold (outlier workloads)
	plans   []connPlan
	hash    uint64
	viewLo  int64 // first timestamp of the offline view
	viewHi  int64
	history int
	pre     int
	future  int // points per table past history+pre: what the ingest lists and the ladder draw on
}

// warmUp is the workload's warm-up at the given scale (a tenth of the
// scale reaches the full length, so only smoke tests shorten it).
func (w *workload) warmUp(scale float64) time.Duration {
	return time.Duration(float64(w.warm) * min(1, scale*10))
}

func scaled(n int, scale float64, floor int) int {
	if v := int(float64(n) * scale); v > floor {
		return v
	}
	return floor
}

var workloads = []*workload{
	{
		name: "ingest_durable", durable: true, tables: []string{"a", "b"},
		history: 1000, viewTuples: 500, omega: defaultOmega, stream: true,
		warm:       1500 * time.Millisecond,
		classes:    [2]string{"ingest10", "ingest1"},
		ladderView: "pv_a", ladderBatch: 10, ladderHTTP: [2]string{"http.ingest", "http.ingest1"},
		plan: func(w *workload, in *inputs, _ *rand.Rand, _ float64) []connPlan {
			// One connection per stream: 10-point batches on a (group
			// commit and per-point inference both show), single points on
			// b (the paper's online mode; only per-point cost shows). Each
			// list holds every future point of its table: nine times what
			// b takes in a run today, six times what a takes.
			return []connPlan{
				{ops: withClass(ingestOps("a", in.series["a"], in.history, 10, in.future/10), classPrimary), keep: true, table: "a"},
				{ops: withClass(ingestOps("b", in.series["b"], in.history, 1, in.future), classSecondary), keep: true, table: "b"},
			}
		},
	},
	{
		name: "read_point", car: true, tables: []string{"raw"},
		history: 3000, omega: defaultOmega,
		warm:       1500 * time.Millisecond,
		classes:    [2]string{"point", "sqlpoint"},
		ladderView: "pv_raw", ladderBatch: 10, ladderHTTP: [2]string{"http.point", "http.sqlpoint"},
		plan: func(w *workload, in *inputs, rng *rand.Rand, scale float64) []connPlan {
			span := newViewSpan("pv_raw", in.series["raw"], in.viewLo, in.viewHi, w.omega)
			return []connPlan{
				{ops: pointMix(span, rng, scaled(4096, scale, 64), true), cyclic: true},
				{ops: pointMix(span, rng, scaled(4096, scale, 64), true), cyclic: true},
			}
		},
	},
	{
		name: "read_window", tables: []string{"raw"},
		// 64 ranges per tuple: 250k rows from 3,910 inferences, so that a
		// scalar op is column-scan bound without a 13 s build.
		history: 4000, omega: view.Omega{Delta: 0.075, N: 64},
		warm:       1500 * time.Millisecond,
		classes:    [2]string{"scalar", "series"},
		ladderView: "pv_raw", ladderBatch: 10, ladderHTTP: [2]string{"http.scalar", "http.series"},
		plan: func(w *workload, in *inputs, rng *rand.Rand, scale float64) []connPlan {
			span := newViewSpan("pv_raw", in.series["raw"], in.viewLo, in.viewHi, w.omega)
			return []connPlan{
				{ops: windowMix(span, rng, scaled(1000, scale, 50)), cyclic: true},
				{ops: windowMix(span, rng, scaled(1000, scale, 50)), cyclic: true},
			}
		},
	},
	{
		name: "mixed_rw", durable: true, tables: []string{"m"},
		history: 1000, omega: defaultOmega, stream: true, outliers: true, paced: true, preIngest: 1024,
		// 0.5 s warm-up proper, then 2 s of idle baseline.
		warm:       2500 * time.Millisecond,
		classes:    [2]string{"point", "ingest5"},
		ladderView: "live_m", ladderBatch: 5, ladderHTTP: [2]string{"http.point", "http.ingest"},
		plan: func(w *workload, in *inputs, rng *rand.Rand, scale float64) []connPlan {
			// The reader addresses the pre-ingested part of the live view:
			// it is immutable, so answers can be checked, and it shares the
			// table and catalog locks with every commit of the writer.
			lo := int64(in.history + 1)
			span := newViewSpan("live_m", in.series["m"], lo, lo+int64(in.pre)-1, w.omega)
			reader := pointMix(span, rng, scaled(3072, scale, 48), false)
			for i := 3; i < len(reader); i += 4 {
				reader[i] = span.scalarOp(rng, 1024)
				reader[i].class = classOther
			}
			// 60 requests/s of 5 points: about a third of one stream's
			// capacity, fixed by schedule so that a faster ingest path
			// cannot worsen read latency merely by sending more writes.
			writer := withClass(ingestOps("m", in.series["m"], in.history+in.pre, 5, in.future/5), classSecondary)
			return []connPlan{
				{ops: reader, cyclic: true},
				{ops: writer, period: time.Second / 60, keep: true, table: "m"},
			}
		},
	},
}

// exercises reports whether a run of w fills the named per-layer metric.
// The ladder runs in full on every workload, so this only lists what
// depends on the daemon's mode and the load's shape; a metric that should
// be filled and is not fails the traced run, the others read 0.
func (w *workload) exercises(metric string) bool {
	switch metric {
	case "clean.prepare_us":
		return w.outliers
	case "wal.bytes_per_point", "wal.fsyncs_per_point", "durable.checkpoints", "durable.checkpoint_ms_total",
		"durable.recover_ms", "durable.disk_bytes_per_point", "client.points_per_s":
		return w.stream // the ingesting workloads are the durable ones
	case "client.scalar_p50_ms", "client.scalar_p95_ms", "client.lateness_p95_ms", "client.point_p95_idle_ms":
		return w.paced
	}
	return true
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// pointMix cycles the point kinds; with sql, every fourth op is the SQL
// form and makes up the secondary class.
func pointMix(span viewSpan, rng *rand.Rand, n int, sql bool) []op {
	kinds := []opKind{kindRangeProb, kindTopK, kindBuckets}
	ops := make([]op, n)
	for i := range ops {
		if sql && i%4 == 3 {
			ops[i] = span.pointOp(rng, kindSQLPoint)
			ops[i].class = classSecondary
			continue
		}
		ops[i] = span.pointOp(rng, kinds[i%4%3])
	}
	return ops
}

// windowMix is the fixed 4:1 interleave of scalar ops over nine tenths of
// the view and series ops over 1,024 groups.
func windowMix(span viewSpan, rng *rand.Rand, n int) []op {
	ops := make([]op, n)
	for i := range ops {
		if i%5 == 4 {
			ops[i] = span.seriesOp(rng, 1024)
			ops[i].class = classSecondary
			continue
		}
		ops[i] = span.scalarOp(rng, (span.tHi-span.tLo+1)*9/10)
	}
	return ops
}

// maxOffset bounds the seed-drawn starting offset of a table within its
// dataset.
const maxOffset = 64

// dataset returns n points of table i's data, starting offset points in.
// The datasets themselves are fixed, as the paper's two recordings are:
// campus-data and car-data with the repository's generator seeds (table i
// uses seed i+1 resp. i+2), outliers injected at fixed positions. What an
// inference costs depends on the data (3,000-point slices differ by +-6%
// between generator seeds), so data drawn from the run's seed would put
// that difference into every metric's run-to-run spread. The seed only
// shifts where a table starts, which changes every request body and
// almost none of the windows fitted.
func (w *workload) dataset(i, offset, n int, in *inputs) (*timeseries.Series, error) {
	total := maxOffset + n
	var s *timeseries.Series
	if w.car {
		s = dataset.Car(dataset.CarConfig{N: total, Seed: int64(i + 2)})
	} else {
		s = dataset.Campus(dataset.CampusConfig{N: total, Seed: int64(i + 1)})
	}
	if w.outliers {
		var err error
		if in.svMax, err = clean.LearnSVMax(s.Values()[offset:offset+in.history], cleanOCMax); err != nil {
			return nil, err
		}
		sum, err := s.Summarize()
		if err != nil {
			return nil, err
		}
		const magnitude, injectSeed = 25, 11
		var injected []dataset.Injection
		if s, injected, err = dataset.InjectErrors(s, total/100, magnitude, maxOffset+window, injectSeed); err != nil {
			return nil, err
		}
		// InjectErrors fixes the positions by its seed but draws each
		// outlier's sign in map-iteration order, so two calls disagree;
		// redraw the signs in index order.
		signs := rand.New(rand.NewSource(injectSeed))
		for _, inj := range injected {
			v := sum.Mean + magnitude*sum.StdDev
			if signs.Intn(2) == 0 {
				v = sum.Mean - magnitude*sum.StdDev
			}
			if err := s.SetValue(inj.Index, v); err != nil {
				return nil, err
			}
		}
	}
	// Timestamps restart at 1, so that every table's history is [1, history].
	pts := make([]timeseries.Point, n)
	for k, v := range s.Values()[offset : offset+n] {
		pts[k] = timeseries.Point{T: int64(k + 1), V: v}
	}
	return timeseries.New(pts)
}

// makeInputs derives every request of a run, and where in the datasets its
// tables start, from the seed.
func (w *workload) makeInputs(seed int64, scale float64) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{
		series:  map[string]*timeseries.Series{},
		history: scaled(w.history, scale, window+60),
		pre:     scaled(w.preIngest, scale, 0),
	}
	if w.preIngest > 0 && in.pre < 64 {
		in.pre = 64
	}
	// Points past the uploaded history: on every workload the few hundred
	// the traced run's ingest ladder replays; on a stream workload enough
	// that an ingest path several times faster than today's still cannot
	// empty a list within the window (a list that does run dry makes the
	// run invalid, see load).
	in.future = 600
	if w.stream {
		in.future = scaled(60000, scale, 6000)
	}
	for i, table := range w.tables {
		s, err := w.dataset(i, rng.Intn(maxOffset), in.history+in.pre+in.future, in)
		if err != nil {
			return nil, err
		}
		in.series[table] = s
	}
	in.viewHi = int64(in.history)
	in.viewLo = window + 1
	if w.viewTuples > 0 {
		if lo := in.viewHi - int64(scaled(w.viewTuples, scale, 50)) + 1; lo > in.viewLo {
			in.viewLo = lo
		}
	}
	in.plans = w.plan(w, in, rng, scale)
	lists := make([][]op, len(in.plans))
	for i, p := range in.plans {
		lists[i] = p.ops
	}
	in.hash = opsHash(lists...)
	return in, nil
}
