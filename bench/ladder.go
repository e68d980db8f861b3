package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/arma"
	"repro/internal/clean"
	"repro/internal/core"
	"repro/internal/density"
	"repro/internal/durable"
	"repro/internal/garch"
	"repro/internal/probdb"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/sigmacache"
	"repro/internal/storage"
	"repro/internal/timeseries"
	"repro/internal/view"
	"repro/internal/wal"
)

// The traced run is a ladder. Every sampled operation is executed once per
// rung, bottom-up, on identical inputs: first the innermost module call,
// then the module that calls it, up to the same request over a loopback
// socket. Each execution is one span; a rung's parent is the rung that
// calls it on the real request path, and a layer's self time is its span
// minus the spans of its children. Everything is called through public
// functions from here — spans inside the program are a later change — and
// on one goroutine.

// span is one timed execution of one rung for one operation.
type span struct {
	OpID   int    `json:"op_id"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Parent string `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Reps is how many identical calls the span covers: nanosecond-scale
	// rungs repeat the call so that the two clock reads do not dominate.
	Reps int `json:"reps,omitempty"`
}

// rung is one step of the ladder. run(k) is the timed call; before and
// after are untimed preparation and commit around it. A rung makes per
// calls for each operation (an ingest rung below the server runs once per
// point of the batch), so call k belongs to operation k/per.
type rung struct {
	name, parent       string
	reps, per          int
	before, run, after func(k int)
}

func (r *rung) call(k int) (start, end time.Time) {
	if r.before != nil {
		r.before(k)
	}
	start = time.Now()
	for i := 0; i < r.reps; i++ {
		r.run(k)
	}
	end = time.Now()
	if r.after != nil {
		r.after(k)
	}
	return start, end
}

// tracer collects the spans of one traced run.
type tracer struct {
	base   time.Time
	spans  []span
	allocs map[string]float64 // rung name -> heap allocations per call
	err    error              // first failure inside a rung
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), spans: make([]span, 0, 1<<14), allocs: map[string]float64{}}
}

func (tr *tracer) fail(err error) {
	if err != nil && tr.err == nil {
		tr.err = err
	}
}

// climb runs one class of operations up its rungs (listed bottom-up).
// Operations [0, warm) go rung by rung, untimed: they warm each rung up
// and, between two runtime.MemStats reads on this one goroutine, count its
// allocations per call (exact for rungs whose before/after do not
// allocate; reading MemStats flushes allocator caches, so it stays out of
// the timed pass). Operations [warm, warm+n) then go op by op, each up
// every rung before the next starts, so that slow drift of the box hits
// all rungs of an operation alike and cancels in the self times. (The top
// rung, a request to another process, climbs separately under the same
// operation ids: waiting on the socket idles this process's core, and the
// in-process rungs that followed would start cold.)
func (tr *tracer) climb(firstID, warm, n int, rungs []rung) {
	for i := range rungs {
		r := &rungs[i]
		r.reps, r.per = max(r.reps, 1), max(r.per, 1)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for k := 0; k < warm*r.per; k++ {
			r.call(k)
		}
		runtime.ReadMemStats(&m1)
		if warm > 0 {
			tr.allocs[r.name] = float64(m1.Mallocs-m0.Mallocs) / float64(warm*r.per*r.reps)
		}
	}
	for op := warm; op < warm+n && tr.err == nil; op++ {
		for i := range rungs {
			r := &rungs[i]
			layer, _, _ := strings.Cut(r.name, ".")
			for k := op * r.per; k < (op+1)*r.per; k++ {
				start, end := r.call(k)
				tr.spans = append(tr.spans, span{OpID: firstID + op - warm, Layer: layer, Name: r.name, Parent: r.parent,
					Start: int64(start.Sub(tr.base)), End: int64(end.Sub(tr.base)), Reps: r.reps})
			}
		}
	}
}

// totals sums, per operation, the time of every span of each rung
// (nanoseconds per call: a span's duration divided by its reps).
func totals(spans []span) map[string]map[int]float64 {
	out := map[string]map[int]float64{}
	for _, s := range spans {
		if out[s.Name] == nil {
			out[s.Name] = map[int]float64{}
		}
		out[s.Name][s.OpID] += float64(s.End-s.Start) / float64(max(s.Reps, 1))
	}
	return out
}

// calls counts the spans of each rung per operation.
func calls(spans []span) map[string]map[int]int {
	out := map[string]map[int]int{}
	for _, s := range spans {
		if out[s.Name] == nil {
			out[s.Name] = map[int]int{}
		}
		out[s.Name][s.OpID]++
	}
	return out
}

// selfTimes is, per rung and operation, the rung's total minus the totals
// of the rungs that name it as parent.
func selfTimes(spans []span) map[string]map[int]float64 {
	tot := totals(spans)
	self := map[string]map[int]float64{}
	for name, ops := range tot {
		self[name] = map[int]float64{}
		for id, v := range ops {
			self[name][id] = v
		}
	}
	parentOf := map[string]string{}
	for _, s := range spans {
		parentOf[s.Name] = s.Parent
	}
	for name, parent := range parentOf {
		if self[parent] == nil {
			continue
		}
		for id, v := range tot[name] {
			if _, ok := self[parent][id]; ok {
				self[parent][id] -= v
			}
		}
	}
	return self
}

// medianPerCall is the median over operations of total/calls, in the unit
// given by div (1e3: microseconds, 1: nanoseconds).
func medianPerCall(tot map[int]float64, n map[int]int, div float64) float64 {
	vs := make([]float64, 0, len(tot))
	for id, v := range tot {
		c := 1
		if n != nil && n[id] > 0 {
			c = n[id]
		}
		vs = append(vs, v/float64(c)/div)
	}
	return median(vs)
}

func (tr *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range tr.spans {
		if err := enc.Encode(&tr.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Operations sampled per class at -scale 1, and the untimed ones before
// them that warm each rung up and count its allocations: twelve read ops
// cover the three point forms evenly, and ten ingest batches average over
// how many optimiser iterations (and so allocations) a window needs.
const (
	ladderPoints      = 300
	ladderScalars     = 200
	ladderSeries      = 100
	ladderBatches     = 30
	ladderWarm        = 12
	ladderWarmBatches = 10
)

// Operation ids of the classes occupy disjoint ranges of one trace file.
const (
	idPoint    = 0
	idSQLPoint = 10000
	idScalar   = 20000
	idSeries   = 30000
	idIngest   = 40000
	idIngest1  = 50000
)

// socketRung is the top rung: the same requests sent to a real tspdbd
// process over loopback on one keep-alive connection, by the client code
// the end-to-end load uses, so that it pays the process boundary every
// end-to-end request pays. The caller closes the connection.
func socketRung(tr *tracer, name, base string, ops []op) (rung, *conn) {
	c, err := newConn(base, ops, false)
	tr.fail(err)
	return rung{name: name, run: func(k int) {
		if !c.do(ops, k) {
			tr.fail(c.firstErr)
		}
	}}, c
}

// climbSocket climbs the top rung on its own, under the operation ids of
// the class it tops.
func (tr *tracer) climbSocket(firstID, warm, n int, name, base string, ops []op) {
	r, c := socketRung(tr, name, base, ops)
	if tr.err != nil {
		return
	}
	defer c.close()
	tr.climb(firstID, warm, n, []rung{r})
}

// recorded serves ops through the handler into ResponseRecorders. Requests
// and recorders are built up front, with room for a response of respBytes,
// so that the rung allocates only what the handler allocates and does not
// pay for growing a buffer a socket would not have.
type recorded struct {
	h    http.Handler
	reqs []*http.Request
	recs []*httptest.ResponseRecorder
}

func newRecorded(h http.Handler, ops []op, respBytes int) *recorded {
	r := &recorded{h: h}
	for i := range ops {
		rec := httptest.NewRecorder()
		rec.Body.Grow(respBytes)
		r.reqs = append(r.reqs, httptest.NewRequest(ops[i].method, ops[i].path, bytes.NewReader(ops[i].body)))
		r.recs = append(r.recs, rec)
	}
	return r
}

// rung is the ladder rung serving every op once; sizes, when non-nil,
// collects the response sizes.
func (r *recorded) rung(tr *tracer, name, parent string, sizes *[]float64) rung {
	return rung{name: name, parent: parent,
		run: func(k int) { r.h.ServeHTTP(r.recs[k], r.reqs[k]) },
		after: func(k int) {
			if rec := r.recs[k]; rec.Code/100 != 2 {
				tr.fail(fmt.Errorf("%s %s: HTTP %d: %s", r.reqs[k].Method, r.reqs[k].URL, rec.Code, rec.Body))
			} else if sizes != nil {
				*sizes = append(*sizes, float64(rec.Body.Len()))
			}
		}}
}

// readLadder replays read ops on rows downloaded from the daemon at base,
// which serves the top rung from the same view. It returns the median size
// of a series response.
func (tr *tracer) readLadder(w *workload, base string, rows []view.Row, raw *timeseries.Series, seed int64, scale float64) (seriesBytes float64) {
	table := &storage.ProbTable{Name: w.ladderView, Source: "raw", MetricName: "ARMA-GARCH", Omega: w.omega}
	tr.fail(table.AppendRows(rows))
	engine := core.NewEngine()
	tr.fail(engine.DB().StoreView(table))
	if tr.err != nil {
		return 0
	}
	handler := server.New(engine, server.Config{})
	workers := query.ResolveParallelism(engine.Parallelism())
	opts := query.Options{Parallelism: engine.Parallelism()}
	warm := scaled(ladderWarm, min(1, scale*10), 3)

	rng := rand.New(rand.NewSource(seed ^ 0x1adde5))
	vs := newViewSpan(w.ladderView, raw, rows[0].T, rows[len(rows)-1].T, w.omega)
	groups := vs.tHi - vs.tLo + 1
	nPoints, nScalars, nSeries := scaled(ladderPoints, scale, 12), scaled(ladderScalars, scale, 8), scaled(ladderSeries, scale, 4)
	points := pointMix(vs, rng, warm+nPoints, false)
	sqls := make([]op, warm+nPoints)
	for i := range sqls {
		sqls[i] = vs.pointOp(rng, kindSQLPoint)
	}
	scalars := make([]op, warm+nScalars)
	for i := range scalars {
		scalars[i] = vs.scalarOp(rng, groups*9/10)
	}
	series := make([]op, warm+nSeries)
	for i := range series {
		series[i] = vs.seriesOp(rng, 1024)
	}
	execSQL := func(q string) {
		stmt, err := query.Parse(q)
		if err == nil {
			_, err = query.ExecStmtWith(engine.DB(), stmt, opts)
		}
		tr.fail(err)
	}

	// point: the three REST forms.
	buckets := make([][]probdb.Bucket, len(points))
	for i := range points {
		for _, b := range points[i].buckets {
			buckets[i] = append(buckets[i], probdb.Bucket{Name: b.Name, Lo: b.Lo, Hi: b.Hi})
		}
	}
	noop := func(storage.GroupCols) error { return nil }
	tr.climb(idPoint, warm, nPoints, []rung{
		{name: "storage.lookup", parent: "probdb.point", reps: 64,
			run: func(k int) { tr.fail(table.ForEachGroupCols(points[k].t, points[k].t, noop)) }},
		{name: "probdb.point", parent: "server.point", run: func(k int) {
			o := &points[k]
			var err error
			switch o.kind {
			case kindRangeProb:
				_, err = probdb.RangeProbAt(table, o.t, o.lo, o.hi)
			case kindTopK:
				_, err = probdb.TopKAt(table, o.t, 3)
			default:
				_, err = probdb.BucketQueryAt(table, o.t, buckets[k])
			}
			tr.fail(err)
		}},
		newRecorded(handler, points, 1<<10).rung(tr, "server.point", "http.point", nil),
	})
	tr.climbSocket(idPoint, warm, nPoints, "http.point", base, points)

	// sqlpoint: the same question through /query.
	tr.climb(idSQLPoint, warm, nPoints, []rung{
		{name: "probdb.sqlpoint", parent: "query.exec_point", run: func(k int) {
			_, _, err := probdb.ProbSeriesPar(table, sqls[k].t, sqls[k].t, sqls[k].lo, sqls[k].hi, workers)
			tr.fail(err)
		}},
		{name: "query.parse", parent: "query.exec_point", run: func(k int) {
			_, err := query.Parse(sqls[k].sql)
			tr.fail(err)
		}},
		{name: "query.exec_point", parent: "server.sqlpoint", run: func(k int) { execSQL(sqls[k].sql) }},
		newRecorded(handler, sqls, 1<<10).rung(tr, "server.sqlpoint", "http.sqlpoint", nil),
	})
	tr.climbSocket(idSQLPoint, warm, nPoints, "http.sqlpoint", base, sqls)

	// scalar: many rows in, one number out. storage.scan is the trivial
	// sequential baseline the kernel is a ratio of, not one of its callees.
	var sink float64
	tr.climb(idScalar, warm, nScalars, []rung{
		{name: "storage.scan", run: func(k int) {
			tr.fail(table.RangeCols(scalars[k].t, scalars[k].tHi, func(gs []storage.TimeGroup, c storage.Cols) error {
				if len(gs) == 0 {
					return nil
				}
				last := gs[len(gs)-1]
				for _, p := range c.Prob[gs[0].Off : last.Off+last.Len] {
					sink += p
				}
				return nil
			}))
		}},
		{name: "probdb.scalar", parent: "query.exec_scalar", run: func(k int) {
			_, _, err := probdb.ExpectedCountPar(table, scalars[k].t, scalars[k].tHi, scalars[k].lo, scalars[k].hi, workers)
			tr.fail(err)
		}},
		{name: "query.exec_scalar", parent: "server.scalar", run: func(k int) { execSQL(scalars[k].sql) }},
		newRecorded(handler, scalars, 1<<10).rung(tr, "server.scalar", "http.scalar", nil),
	})
	tr.climbSocket(idScalar, warm, nScalars, "http.scalar", base, scalars)
	if sink < 0 {
		tr.fail(fmt.Errorf("negative probability mass %v", sink)) // also keeps the scan's sum live
	}

	// series: one fused scan in, two points of JSON per group out.
	want := probdb.FusedStats{Expected: true, Prob: true, Count: true}
	var sizes []float64
	tr.climb(idSeries, warm, nSeries, []rung{
		{name: "probdb.series", parent: "server.series", run: func(k int) {
			_, _, err := probdb.FusedSeries(table, series[k].t, series[k].tHi, series[k].lo, series[k].hi, want, workers)
			tr.fail(err)
		}},
		newRecorded(handler, series, 128<<10).rung(tr, "server.series", "http.series", &sizes),
	})
	tr.climbSocket(idSeries, warm, nSeries, "http.series", base, series)
	return median(sizes)
}

// ingestStream is one durable in-process engine with an open stream, as
// the daemon would hold it, in its own scratch directory.
type ingestStream struct {
	engine *core.Engine
	stream *core.Stream
}

func openIngestStream(dir string, w *workload, in *inputs, hist *timeseries.Series) (*ingestStream, error) {
	engine, err := core.OpenEngine(core.Config{DataDir: dir, Fsync: true})
	if err != nil {
		return nil, err
	}
	if err := engine.RegisterSeries("src", hist); err != nil {
		engine.Close()
		return nil, err
	}
	cfg := core.StreamConfig{
		Source: "src", ViewName: "live", H: window, Omega: w.omega,
		SigmaRange: &core.SigmaRange{Min: sigmaMin, Max: sigmaMax, DistanceConstraint: cacheDistance},
	}
	if w.outliers {
		cfg.Clean = &core.CleanStreamConfig{OCMax: cleanOCMax, SVMax: in.svMax}
	}
	stream, err := engine.OpenStream(cfg)
	if err != nil {
		engine.Close()
		return nil, err
	}
	return &ingestStream{engine: engine, stream: stream}, nil
}

// ingestLadder replays the next points of the workload's first table, in
// batches of the workload's size. Rungs that change state each get a store
// of their own, fed the same points; the top rungs get a durable tspdbd of
// their own. It returns the median size of a batch acknowledgement.
func (tr *tracer) ingestLadder(w *workload, in *inputs, tspdbd, dir string, scale float64) (respBytes float64) {
	series := in.series[w.tables[0]]
	from := in.history + in.pre
	batch := w.ladderBatch
	warm := scaled(ladderWarmBatches, min(1, scale*10), 1)
	nb := scaled(ladderBatches, scale, 3)
	n := (warm + nb) * batch
	ts, vals := series.Times(), series.Values()
	hist, err := series.Slice(0, from)
	if err != nil || len(vals) < from+n {
		tr.fail(fmt.Errorf("ingest ladder: %d points past %d needed, series has %d (%v)", n, from, len(vals), err))
		return 0
	}
	point := func(k int) timeseries.Point { return timeseries.Point{T: ts[from+k], V: vals[from+k]} }

	metric, err := density.NewARMAGARCH(1, 0)
	tr.fail(err)
	builder, err := view.NewBuilder(w.omega)
	tr.fail(err)
	cache, err := sigmacache.New(sigmacache.Config{Delta: w.omega.Delta, N: w.omega.N, DistanceConstraint: cacheDistance}, sigmaMin, sigmaMax)
	tr.fail(err)
	if tr.err != nil {
		return 0
	}
	builder.Cache = cache

	// The window the model sees before point k: the raw values on a plain
	// stream; on a cleaning stream the processor's window, in which values
	// it marked erroneous have been replaced.
	windows := make([][]float64, n)
	for k := range windows {
		windows[k] = vals[from+k-window : from+k]
	}
	var proc *clean.Processor // the clean.prepare rung's; nil on a plain stream
	if w.outliers {
		newProcessor := func() *clean.Processor {
			p, err := clean.NewProcessor(clean.Config{Metric: metric, H: window, OCMax: cleanOCMax, SVMax: in.svMax}, vals[from-window:from])
			tr.fail(err)
			return p
		}
		pre := newProcessor()
		proc = newProcessor()
		if tr.err != nil {
			return 0
		}
		for k := range windows {
			windows[k] = pre.Window()
			_, err := pre.Step(vals[from+k])
			tr.fail(err)
		}
	}
	windowAt := func(k int) []float64 { return windows[k] }

	// Untimed pass: the inputs the inner rungs need (ARMA residuals for
	// the GARCH fit, the inferred tuple and its rows for everything from
	// view generation down).
	resid := make([][]float64, n)
	tuples := make([]view.Tuple, n)
	rows := make([][]view.Row, n)
	for k := 0; k < n; k++ {
		_, model, err := arma.FitForecast(windowAt(k), 1, 0)
		tr.fail(err)
		inf, err := metric.Infer(windowAt(k))
		tr.fail(err)
		if tr.err != nil {
			return 0
		}
		resid[k] = model.ResidualsOf(windowAt(k))[1:]
		tuples[k] = view.Tuple{T: ts[from+k], RHat: inf.RHat, Sigma: inf.Sigma, Dist: inf.Dist}
		rows[k], err = builder.GenerateOne(tuples[k])
		tr.fail(err)
	}

	// wal: a scratch log without per-append sync, fed payloads the size
	// of a step record.
	payload := make([]byte, 32+36*w.omega.N)
	walDir := filepath.Join(dir, "wal")
	tr.fail(os.MkdirAll(walDir, 0o755))
	log, err := wal.OpenLog(wal.OS(), walDir, 1, wal.Options{})
	tr.fail(err)
	// durable: one store whose step records are only logged, and one
	// behind a catalog that commits them.
	store, err := durable.Open(wal.OS(), filepath.Join(dir, "store"), durable.Options{Fsync: true})
	tr.fail(err)
	cstore, err := durable.Open(wal.OS(), filepath.Join(dir, "commit"), durable.Options{Fsync: true})
	tr.fail(err)
	if tr.err != nil {
		return 0
	}
	live := &storage.ProbTable{Name: "live", Source: "src", MetricName: metric.Name(), Omega: w.omega}
	_, err = cstore.DB().CreateRawTable("src", "", "", hist.Clone())
	tr.fail(err)
	tr.fail(cstore.DB().StoreView(live))
	mem := &storage.ProbTable{Name: "mem", Omega: w.omega}
	// core, server, http: whole steps on engines of their own.
	open := func(name string) *ingestStream {
		s, err := openIngestStream(filepath.Join(dir, name), w, in, hist.Clone())
		tr.fail(err)
		return s
	}
	coreS, serverS := open("core"), open("server")
	if tr.err != nil {
		return 0
	}
	defer func() {
		tr.fail(log.Close())
		tr.fail(store.Close())
		tr.fail(cstore.Close())
		tr.fail(coreS.engine.Close())
		tr.fail(serverS.engine.Close())
	}()
	// The child daemon holds the history twice, with a stream on each
	// copy: one takes the batches, one the single points.
	child, err := startDaemon(tspdbd, filepath.Join(dir, "child"))
	if err != nil {
		tr.fail(err)
		return 0
	}
	defer child.kill()
	for _, table := range []string{"src", "src1"} {
		_, err := child.api.CreateTable(table, server.CreateTableRequest{Points: pointsJSON(series, 0, from)})
		tr.fail(err)
		_, err = child.api.OpenStream(table, w.streamRequest("live_"+table, in))
		tr.fail(err)
	}
	batches := ingestOps("src", series, from, batch, warm+nb)
	singles := ingestOps("src1", series, from, 1, warm+nb)

	// On a cleaning stream the inference runs inside clean.Prepare, on the
	// window windowAt returns; on a plain one core calls it directly and
	// clean is off the path, so the ladder has no such rung.
	inferParent := "core.step"
	if proc != nil {
		inferParent = "clean.prepare"
	}
	rungs := []rung{
		{name: "arma.fit", parent: "density.infer", per: batch, run: func(k int) {
			_, _, err := arma.FitForecast(windowAt(k), 1, 0)
			tr.fail(err)
		}},
		{name: "garch.fit", parent: "density.infer", per: batch, run: func(k int) {
			// A degenerate residual window makes Infer fall back to the
			// window variance; the fit attempt is still the cost.
			_, _, _ = garch.FitForecast(resid[k], 1, 1, nil)
		}},
		{name: "density.infer", parent: inferParent, per: batch, run: func(k int) {
			_, err := metric.Infer(windowAt(k))
			tr.fail(err)
		}},
	}
	if proc != nil {
		var commit func()
		rungs = append(rungs, rung{name: "clean.prepare", parent: "core.step", per: batch,
			run: func(k int) {
				var err error
				_, commit, err = proc.Prepare(vals[from+k])
				tr.fail(err)
			},
			after: func(int) {
				if commit != nil {
					commit()
				}
			}})
	}
	var sizes []float64
	rungs = append(rungs,
		rung{name: "sigmacache.lookup", parent: "view.generate", per: batch, reps: 64,
			run: func(k int) { cache.Lookup(tuples[k].Sigma) }},
		rung{name: "view.generate", parent: "core.step", per: batch, run: func(k int) {
			_, err := builder.GenerateOne(tuples[k])
			tr.fail(err)
		}},
		rung{name: "wal.append", parent: "durable.step", per: batch, run: func(int) { tr.fail(log.Append(payload)) }},
		rung{name: "wal.sync", parent: "durable.step", per: batch,
			before: func(int) { tr.fail(log.Append(payload)) }, run: func(int) { tr.fail(log.Sync()) }},
		rung{name: "durable.step", parent: "storage.commit", per: batch,
			run: func(k int) { tr.fail(store.Step("src", point(k), "live", rows[k])) }},
		rung{name: "storage.append_rows", per: batch, run: func(k int) { tr.fail(mem.AppendRows(rows[k])) }},
		rung{name: "storage.commit", parent: "core.step", per: batch,
			run: func(k int) { tr.fail(cstore.DB().CommitStep("src", point(k), live, rows[k])) }},
		rung{name: "core.step", parent: "server.ingest", per: batch, run: func(k int) {
			_, err := coreS.stream.StepDetailed(point(k))
			tr.fail(err)
		}},
		newRecorded(server.New(serverS.engine, server.Config{}), batches, 64<<10).rung(tr, "server.ingest", "http.ingest", &sizes),
	)
	tr.climb(idIngest, warm, nb, rungs)
	tr.climbSocket(idIngest, warm, nb, "http.ingest", child.base, batches)
	// The single-point request: the floor of the online mode.
	tr.climbSocket(idIngest1, warm, nb, "http.ingest1", child.base, singles)
	return median(sizes)
}
