package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/server"
	"repro/internal/timeseries"
)

// config is one invocation of the harness.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	scale    float64
	setups   int    // set-ups per run; setup_s and build_tuples_per_s are their medians
	tspdbd   string // daemon binary
	work     string // scratch directory for data dirs
	out      string // result and trace files
}

// env is a daemon that has been set up and is ready for the first
// measured operation.
type env struct {
	d       *daemon
	dataDir string
	setupS  float64
	// buildTuples and buildS describe the offline CREATE VIEW requests.
	buildTuples int
	buildS      float64
	// acked holds, per stream table, the view rows of every acknowledged
	// ingest so far, in order.
	acked map[string][]server.RowJSON
}

func (e *env) close() {
	e.d.kill()
	if e.dataDir != "" {
		os.RemoveAll(e.dataDir)
	}
}

func pointsJSON(s *timeseries.Series, from, to int) []server.PointJSON {
	ts, vs := s.Times(), s.Values()
	pts := make([]server.PointJSON, 0, to-from)
	for i := from; i < to; i++ {
		pts = append(pts, server.PointJSON{T: ts[i], V: vs[i]})
	}
	return pts
}

// setUp starts a fresh daemon and brings it to the state the measured
// window starts from: history uploaded, offline views built, streams open
// and pre-ingested. setup_s is child start to ready for the first op.
func (w *workload) setUp(cfg config, in *inputs, n int) (*env, error) {
	e := &env{acked: map[string][]server.RowJSON{}}
	if w.durable {
		e.dataDir = filepath.Join(cfg.work, fmt.Sprintf("%s-%d-%d", w.name, os.Getpid(), n))
		if err := os.RemoveAll(e.dataDir); err != nil {
			return nil, err
		}
	}
	d, err := startDaemon(cfg.tspdbd, e.dataDir)
	if err != nil {
		return nil, err
	}
	e.d = d
	if err := w.populate(e, in); err != nil {
		e.close()
		return nil, fmt.Errorf("set-up: %w\n%s", err, d.logs.String())
	}
	e.setupS = time.Since(d.started).Seconds()
	return e, nil
}

// streamRequest opens the workload's kind of stream: default ARMA-GARCH
// with the online sigma-cache, C-GARCH cleaning on the outlier workload.
func (w *workload) streamRequest(view string, in *inputs) server.OpenStreamRequest {
	req := server.OpenStreamRequest{
		View: view, H: window, Delta: w.omega.Delta, N: w.omega.N,
		SigmaMin: sigmaMin, SigmaMax: sigmaMax, Distance: cacheDistance,
	}
	if w.outliers {
		req.CleanOCMax, req.CleanSVMax = cleanOCMax, in.svMax
	}
	return req
}

func (w *workload) populate(e *env, in *inputs) error {
	api := e.d.api
	for _, table := range w.tables {
		if _, err := api.CreateTable(table, server.CreateTableRequest{Points: pointsJSON(in.series[table], 0, in.history)}); err != nil {
			return err
		}
	}
	for _, table := range w.tables {
		q := fmt.Sprintf("CREATE VIEW pv_%s AS DENSITY r OVER t OMEGA delta=%s, n=%d WINDOW %d CACHE DISTANCE %s FROM %s WHERE t >= %d AND t <= %d",
			table, fmtFloat(w.omega.Delta), w.omega.N, window, fmtFloat(cacheDistance), table, in.viewLo, in.viewHi)
		start := time.Now()
		res, err := api.Exec(q)
		if err != nil {
			return err
		}
		e.buildS += time.Since(start).Seconds()
		e.buildTuples += res.View.Rows / w.omega.N
	}
	if !w.stream {
		return nil
	}
	for _, table := range w.tables {
		if _, err := api.OpenStream(table, w.streamRequest("live_"+table, in)); err != nil {
			return err
		}
		pts := pointsJSON(in.series[table], in.history, in.history+in.pre)
		for len(pts) > 0 {
			n := min(64, len(pts))
			resp, err := api.Ingest(table, pts[:n])
			if err != nil {
				return err
			}
			e.acked[table] = append(e.acked[table], resp.Rows...)
			pts = pts[n:]
		}
	}
	return nil
}

// loadResult is what the load phase observed.
type loadResult struct {
	samples  []sample
	t0, t1   int64   // measured window on the run clock
	wallS    float64 // t0 to the end of the last measured request
	cpuS     float64 // child CPU over the measured window
	lateness []int64 // open-loop generator lateness
	periodNs int64   // open-loop period (0: no open loop)
	// attempted and failed count every timed request, warm-up included.
	attempted, failed int
	firstErr          error
	points            int // points acknowledged during the load phase
	windowPoints      int // of those, the ones sent inside the measured window
	// ranDry names the ingest lists that ended before the window did: the
	// daemon went unloaded from then on.
	ranDry        []string
	before, after map[string]float64
}

// load runs the plans against the daemon: closed loops from now, open
// loops from the start of the measured window, everything until its end.
func (w *workload) load(cfg config, in *inputs, e *env) (*loadResult, error) {
	conns := make([]*conn, len(in.plans))
	for i, p := range in.plans {
		c, err := newConn(e.d.base, p.ops, p.keep)
		if err != nil {
			return nil, err
		}
		defer c.close()
		conns[i] = c
	}
	res := &loadResult{}
	var err error
	if res.before, err = e.d.scrape(); err != nil {
		return nil, err
	}

	base := time.Now()
	clock := func() int64 { return int64(time.Since(base)) }
	res.t0 = clock() + int64(w.warmUp(cfg.scale))
	res.t1 = res.t0 + int64(time.Duration(cfg.seconds)*time.Second)
	for _, p := range in.plans {
		if p.period > 0 && int((res.t1-res.t0)/int64(p.period)) > len(p.ops) {
			return nil, fmt.Errorf("open-loop list for %s holds %d requests, %d s at one per %v need more", p.table, len(p.ops), cfg.seconds, p.period)
		}
	}
	var wg sync.WaitGroup
	var mu sync.Mutex // guards res.lateness, res.periodNs and res.ranDry
	for i, p := range in.plans {
		wg.Add(1)
		go func(c *conn, p connPlan) {
			defer wg.Done()
			if p.period == 0 {
				if !c.closedLoop(clock, res.t1, p.ops, p.cyclic) {
					mu.Lock()
					res.ranDry = append(res.ranDry, p.table)
					mu.Unlock()
				}
				return
			}
			n := int((res.t1 - res.t0) / int64(p.period))
			late := c.openLoop(clock, schedule(res.t0, int64(p.period), n), p.ops)
			mu.Lock()
			res.lateness, res.periodNs = append(res.lateness, late...), int64(p.period)
			mu.Unlock()
		}(conns[i], p)
	}
	time.Sleep(time.Duration(res.t0 - clock()))
	cpu0, err0 := e.d.cpuSeconds()
	time.Sleep(time.Duration(res.t1 - clock()))
	cpu1, err1 := e.d.cpuSeconds()
	wg.Wait()
	if err0 != nil || err1 != nil {
		return nil, fmt.Errorf("child CPU time: %v, %v", err0, err1)
	}
	res.cpuS = cpu1 - cpu0

	last := res.t1
	for i, c := range conns {
		res.samples = append(res.samples, c.samples...)
		res.attempted += c.attempted
		res.failed += c.failed
		if res.firstErr == nil {
			res.firstErr = c.firstErr
		}
		// A list is sent in order (a cyclic one wraps around), so sample j
		// is op j mod len; only ingest ops carry points.
		p := in.plans[i]
		for j, s := range c.samples {
			if s.start < res.t0 {
				continue
			}
			last = max(last, s.start+s.dur)
			if s.start < res.t1 {
				res.windowPoints += len(p.ops[j%len(p.ops)].points)
			}
		}
		// Ingest acknowledgements, decoded only now that no timer runs:
		// each must report the whole batch and n rows per point.
		for j, body := range c.bodies {
			var ack server.IngestResponse
			want := len(p.ops[j].points)
			if err := json.Unmarshal(body, &ack); err != nil || ack.Ingested != want || len(ack.Rows) != want*w.omega.N {
				res.failed++
				if res.firstErr == nil {
					res.firstErr = fmt.Errorf("ingest ack %d on %s: ingested=%d rows=%d, want %d points (%v)", j, p.table, ack.Ingested, len(ack.Rows), want, err)
				}
				continue
			}
			res.points += ack.Ingested
			e.acked[p.table] = append(e.acked[p.table], ack.Rows...)
		}
	}
	res.wallS = float64(last-res.t0) / 1e9
	if res.after, err = e.d.scrape(); err != nil {
		return nil, err
	}
	return res, nil
}

// delta is the growth of a scraped counter over the load phase, and
// whether the daemon exposes a series of that name at all.
func (r *loadResult) delta(name string) (float64, bool) {
	after, ok := r.after[name]
	return after - r.before[name], ok
}

// crashResult is what the durability check observed.
type crashResult struct {
	diskBytes         int64
	points            int // raw points the data directory holds
	recoverMS         float64
	attempted, failed int
	firstErr          error
}

// crashCheck makes the final checkpoint, measures the data directory,
// kills the daemon with SIGKILL, restarts it on the same directory and
// requires every acknowledged row back, in order, and nothing else.
// SIGKILL leaves the OS page cache intact, so this checks process-crash
// durability; power loss is the faultfs crash matrix's job.
func (w *workload) crashCheck(cfg config, in *inputs, e *env) (*crashResult, error) {
	res := &crashResult{}
	if err := e.d.api.Checkpoint(); err != nil {
		return nil, fmt.Errorf("final checkpoint: %w", err)
	}
	var err error
	if res.diskBytes, err = dirBytes(e.dataDir); err != nil {
		return nil, err
	}
	e.d.kill()
	d, err := startDaemon(cfg.tspdbd, e.dataDir)
	if err != nil {
		return nil, fmt.Errorf("restart after SIGKILL: %w", err)
	}
	e.d = d
	for i, table := range w.tables {
		acked := e.acked[table]
		res.points += in.history + len(acked)/w.omega.N
		if i == 0 {
			// Recovery time: exec to the first full-view answer.
			if _, err := d.api.Exec("SELECT COUNT(-1e9, 1e9) FROM live_" + table); err != nil {
				return nil, fmt.Errorf("first query after restart: %w", err)
			}
			res.recoverMS = float64(time.Since(d.started)) / 1e6
		}
		served, err := d.api.AllViewRows("live_" + table)
		if err != nil {
			return nil, fmt.Errorf("re-read live_%s: %w", table, err)
		}
		res.attempted += len(acked)
		bad := 0
		for j, row := range acked {
			if j >= len(served.Rows) || served.Rows[j] != row {
				bad++
			}
		}
		if extra := len(served.Rows) - len(acked); extra > 0 {
			bad += extra
		}
		if bad > 0 && res.firstErr == nil {
			res.firstErr = fmt.Errorf("live_%s after SIGKILL: %d of %d acknowledged rows wrong or missing (served %d)", table, bad, len(acked), len(served.Rows))
		}
		res.failed += bad
	}
	return res, nil
}
