package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/view"
)

// benchmarkFile mirrors BENCHMARK.json: the one list of metric names and
// units, read at run time so that the harness cannot print a metric the
// file does not declare or miss one it does.
type benchmarkFile struct {
	RunSeconds int          `json:"run_seconds"`
	Workloads  []namedWhy   `json:"workloads"`
	EndToEnd   []metricDecl `json:"end_to_end"`
	PerLayer   []metricDecl `json:"per_layer"`
}

type namedWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDecl struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readBenchmarkFile(root string) (*benchmarkFile, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &f, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// verdict is the last line of standard output, as the driver reads it.
type verdict struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// outcome is everything one run measured: all metrics of both kinds, the
// failure accounting and the reasons a run is not correct.
type outcome struct {
	workload  string
	values    map[string]float64
	attempted int
	failed    int
	problems  []string
	opsHash   uint64
}

func (o *outcome) fail(n int, err error) {
	o.failed += n
	if err != nil {
		o.problems = append(o.problems, err.Error())
	}
}

// runWorkload executes one run of one workload and returns what it
// measured.
func runWorkload(cfg config) (*outcome, error) {
	w, err := workloadByName(cfg.workload)
	if err != nil {
		return nil, err
	}
	in, err := w.makeInputs(cfg.seed, cfg.scale)
	if err != nil {
		return nil, err
	}
	out := &outcome{workload: w.name, values: map[string]float64{}, opsHash: in.hash}
	v := out.values

	// Set-up, several times over: setup_s is the noisiest metric and the
	// one a later change may quietly move work into.
	var e *env
	var setupS, buildRate []float64
	for i := 0; i < cfg.setups; i++ {
		if e != nil {
			e.close()
		}
		if e, err = w.setUp(cfg, in, i); err != nil {
			return nil, err
		}
		setupS = append(setupS, e.setupS)
		buildRate = append(buildRate, float64(e.buildTuples)/e.buildS)
	}
	defer func() { e.close() }()
	v["setup_s"] = median(setupS)
	v["build_tuples_per_s"] = median(buildRate)

	ld, err := w.load(cfg, in, e)
	if err != nil {
		return nil, fmt.Errorf("load: %w\n%s", err, e.d.logs.String())
	}
	out.attempted += ld.attempted
	out.fail(ld.failed, ld.firstErr)

	for _, table := range ld.ranDry {
		out.fail(0, fmt.Errorf("the ingest list of table %s ran dry before the window closed: the daemon outran the load", table))
	}

	prim := summarize(ld.samples, classPrimary, ld.t0, ld.t1)
	sec := summarize(ld.samples, classSecondary, ld.t0, ld.t1)
	other := summarize(ld.samples, classOther, ld.t0, ld.t1)
	closed := prim.n + other.n
	if ld.periodNs == 0 {
		closed += sec.n
	}
	v["req_per_s"] = float64(closed) / ld.wallS
	v["primary_p50_ms"], v["primary_p95_ms"] = prim.p50, prim.p95
	v["secondary_p50_ms"], v["secondary_p95_ms"] = sec.p50, sec.p95
	v["cpu_ms_per_req"] = ld.cpuS * 1e3 / float64(prim.n+sec.n+other.n)
	if prim.n == 0 || sec.n == 0 {
		out.fail(0, fmt.Errorf("empty latency class: %d %s and %d %s requests measured", prim.n, w.classes[0], sec.n, w.classes[1]))
	}

	v["client.primary_p99_ms"], v["client.primary_max_ms"] = prim.p99, prim.max
	v["client.secondary_p99_ms"], v["client.secondary_max_ms"] = sec.p99, sec.max
	if other.n > 0 {
		v["client.scalar_p50_ms"], v["client.scalar_p95_ms"] = other.p50, other.p95
	}
	if w.stream {
		v["client.points_per_s"] = float64(ld.windowPoints) / ld.wallS
	}
	if ld.periodNs > 0 {
		// The reader ran alone until the window opened: the last four
		// fifths of that is the idle baseline of the same connection.
		idleFrom := ld.t0 - int64(w.warmUp(cfg.scale))*4/5
		v["client.point_p95_idle_ms"] = summarize(ld.samples, classPrimary, idleFrom, ld.t0).p95
		late := p95ms(ld.lateness)
		v["client.lateness_p95_ms"] = late
		if late > float64(ld.periodNs)/1e6 {
			out.fail(0, fmt.Errorf("open-loop generator ran late: lateness p95 %.2f ms exceeds the %.2f ms period", late, float64(ld.periodNs)/1e6))
		}
	}
	if rss, err := e.d.rssPeakMB(); err == nil {
		v["process.rss_peak_mb"] = rss
	}
	// A series the daemon does not expose leaves its metric unmeasured,
	// which print reports; it does not read as 0.
	for _, c := range []struct {
		metric, series string
		scale          float64
	}{
		{"wal.bytes_per_point", "tspdb_wal_bytes_total", 1 / float64(ld.points)},
		{"wal.fsyncs_per_point", "tspdb_wal_fsync_seconds_count", 1 / float64(ld.points)},
		{"durable.checkpoints", "tspdb_checkpoints_total", 1},
		{"durable.checkpoint_ms_total", "tspdb_checkpoint_seconds_sum", 1e3},
	} {
		if d, ok := ld.delta(c.series); ok && ld.points > 0 {
			v[c.metric] = d * c.scale
		}
	}
	if hits, misses := ld.after["tspdbd_sigma_cache_hits_total"], ld.after["tspdbd_sigma_cache_misses_total"]; hits+misses > 0 {
		v["sigmacache.hit_ratio"] = hits / (hits + misses)
	}

	// Untimed verification against the row-at-a-time oracle.
	var ladderRows []view.Row
	if readOps := readLists(in); len(readOps) > 0 || cfg.trace {
		served, err := e.d.api.AllViewRows(w.ladderView)
		if err != nil {
			return nil, fmt.Errorf("download %s: %w", w.ladderView, err)
		}
		or := newOracle(served.Rows)
		ladderRows = or.rows
		a, f, first := or.verifySample(e.d, 200, readOps...)
		out.attempted += a
		out.fail(f, first)
	}

	if w.durable {
		cr, err := w.crashCheck(cfg, in, e)
		if err != nil {
			return nil, fmt.Errorf("%w\n%s", err, e.d.logs.String())
		}
		out.attempted += cr.attempted
		out.fail(cr.failed, cr.firstErr)
		v["durable.recover_ms"] = cr.recoverMS
		v["durable.disk_bytes_per_point"] = float64(cr.diskBytes) / float64(cr.points)
	}

	if cfg.trace {
		if err := w.traced(cfg, in, e.d.base, ladderRows, v); err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
		// The ladder's top rung over the end-to-end median of the same
		// class: near 1 when the ladder explains the request.
		if prim.p50 > 0 && sec.p50 > 0 {
			v["trace.http_vs_e2e_primary"] = v[w.ladderHTTP[0]+"_us"] / 1e3 / prim.p50
			v["trace.http_vs_e2e_secondary"] = v[w.ladderHTTP[1]+"_us"] / 1e3 / sec.p50
		}
	}
	return out, nil
}

// readLists returns the op lists that hold read ops.
func readLists(in *inputs) [][]op {
	var lists [][]op
	for _, p := range in.plans {
		if len(p.ops) > 0 && p.ops[0].kind != kindIngest {
			lists = append(lists, p.ops)
		}
	}
	return lists
}

// traced runs both ladders and turns their spans into per-layer values.
func (w *workload) traced(cfg config, in *inputs, base string, rows []view.Row, v map[string]float64) error {
	dir := filepath.Join(cfg.work, fmt.Sprintf("ladder-%s-%d", w.name, os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if len(rows) == 0 {
		return fmt.Errorf("view %s is empty", w.ladderView)
	}
	tr := newTracer()
	table := w.tables[0]
	v["server.series_resp_bytes"] = tr.readLadder(w, base, rows, in.series[table], cfg.seed, cfg.scale)
	if tr.err == nil {
		v["server.ingest_resp_bytes"] = tr.ingestLadder(w, in, cfg.tspdbd, dir, cfg.scale)
	}
	if tr.err != nil {
		return tr.err
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	if err := tr.write(filepath.Join(cfg.out, "trace-"+w.name+".jsonl")); err != nil {
		return err
	}

	tot, self, n := totals(tr.spans), selfTimes(tr.spans), calls(tr.spans)
	us := func(name string) float64 { return medianPerCall(tot[name], n[name], 1e3) }
	selfUS := func(name string) float64 { return medianPerCall(self[name], n[name], 1e3) }
	for name := range tot {
		v[name+"_us"] = us(name)
		v[name+"_self_us"] = selfUS(name)
		v[name+"_allocs"] = tr.allocs[name]
	}
	v["sigmacache.lookup_ns"] = medianPerCall(tot["sigmacache.lookup"], n["sigmacache.lookup"], 1)
	v["storage.lookup_ns"] = medianPerCall(tot["storage.lookup"], n["storage.lookup"], 1)
	// Kernel and baseline as rates over the rows of the scanned window.
	scanRows := float64(len(rows)) * 0.9
	v["storage.scan_rows_per_s"] = scanRows / (us("storage.scan") / 1e6)
	v["probdb.scalar_rows_per_s"] = scanRows / (us("probdb.scalar") / 1e6)
	return nil
}

// print writes one "workload metric value unit" line per declared metric
// of the requested kind, then the verdict as the last line.
func (o *outcome) print(out io.Writer, bf *benchmarkFile, trace bool, w *workload) error {
	decls := bf.EndToEnd
	if trace {
		decls = bf.PerLayer
	}
	vd := verdict{Correct: o.failed == 0 && len(o.problems) == 0, Attempted: o.attempted, Failed: o.failed,
		Metrics: map[string]metricValue{}}
	for _, d := range decls {
		// A per-layer metric the workload does not exercise reads 0; any
		// other metric without a value means the harness or a /metrics
		// series it reads has changed, and fails the run.
		val, ok := o.values[d.Name]
		if !ok && (!trace || w.exercises(d.Name)) {
			return fmt.Errorf("metric %s is declared in BENCHMARK.json but was not measured", d.Name)
		}
		if math.IsNaN(val) || math.IsInf(val, 0) {
			return fmt.Errorf("metric %s is %v", d.Name, val)
		}
		vd.Metrics[d.Name] = metricValue{Value: val, Unit: d.Unit}
		fmt.Fprintf(out, "%s %s %v %s\n", o.workload, d.Name, val, d.Unit)
	}
	fmt.Fprintf(out, "# %s: primary = %s, secondary = %s, ops hash %016x\n", o.workload, w.classes[0], w.classes[1], o.opsHash)
	for _, p := range o.problems {
		fmt.Fprintf(out, "# problem: %s\n", p)
	}
	line, err := json.Marshal(vd)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(line))
	return err
}

// resultFile is what bench/out keeps of a run, with the environment it ran in.
type resultFile struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Seconds    int                `json:"seconds"`
	Scale      float64            `json:"scale"`
	Trace      bool               `json:"trace"`
	NProc      int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	GoVersion  string             `json:"go_version"`
	Commit     string             `json:"commit"`
	Time       string             `json:"time"`
	OpsHash    string             `json:"ops_hash"`
	Correct    bool               `json:"correct"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Problems   []string           `json:"problems,omitempty"`
	Metrics    map[string]float64 `json:"metrics"`
}

func (o *outcome) save(cfg config, commit string) error {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	rf := resultFile{
		Workload: o.workload, Seed: cfg.seed, Seconds: cfg.seconds, Scale: cfg.scale, Trace: cfg.trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit, Time: time.Now().UTC().Format(time.RFC3339), OpsHash: fmt.Sprintf("%016x", o.opsHash),
		Correct: o.failed == 0 && len(o.problems) == 0, Attempted: o.attempted, Failed: o.failed,
		Problems: o.problems, Metrics: o.values,
	}
	b, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("result-%s-seed%d-trace%d.json", o.workload, cfg.seed, btoi(cfg.trace))
	return os.WriteFile(filepath.Join(cfg.out, name), append(b, '\n'), 0o644)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
