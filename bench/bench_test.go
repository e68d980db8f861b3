package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/server"
	"repro/internal/view"
)

func TestPercentileAndMedian(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 5}, {0.95, 10}, {0.9, 9}, {1, 10}} {
		if got := percentile(sorted, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of empty sample = %v, want 0", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median odd = %v, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
}

// Percentiles are over the whole window: a stall that delays more than one
// request in twenty moves p95, wherever in the window it falls.
func TestSummarizeCoversTheWholeWindow(t *testing.T) {
	var samples []sample
	for i := 0; i < 4000; i++ {
		dur := int64(time.Millisecond)
		if i >= 2000 && i < 2240 { // 6% of the requests, all within one quarter of a second
			dur *= 50
		}
		samples = append(samples, sample{start: int64(i) * 1e6, dur: dur, class: classPrimary})
	}
	samples = append(samples, sample{start: 5e8, dur: 7e9, class: classSecondary}) // other class: ignored
	samples = append(samples, sample{start: 5e9, dur: 7e9, class: classPrimary})   // outside window: ignored
	st := summarize(samples, classPrimary, 0, 4e9)
	if st.n != 4000 {
		t.Fatalf("n = %d, want 4000", st.n)
	}
	if st.p50 != 1 || st.p95 != 50 || st.p99 != 50 || st.max != 50 {
		t.Errorf("p50, p95, p99, max = %v, %v, %v, %v; want 1, 50, 50, 50", st.p50, st.p95, st.p99, st.max)
	}
	if empty := summarize(samples, classOther, 0, 4e9); empty != (classStats{}) {
		t.Errorf("empty class: %+v", empty)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles = %v, %v; want 1.5, 12", q1, q3)
	}
}

func TestSelfTimeArithmetic(t *testing.T) {
	spans := []span{
		// Operation 7: a chain leaf -> mid -> top, the leaf timed over 4 reps.
		{OpID: 7, Name: "a.leaf", Parent: "b.mid", Start: 0, End: 400, Reps: 4},
		{OpID: 7, Name: "b.mid", Parent: "c.top", Start: 1000, End: 1300, Reps: 1},
		{OpID: 7, Name: "c.top", Start: 2000, End: 2500, Reps: 1},
		// Operation 8: a batch of two calls below one request, two siblings.
		{OpID: 8, Name: "a.leaf", Parent: "b.mid", Start: 0, End: 40, Reps: 4},
		{OpID: 8, Name: "a.leaf", Parent: "b.mid", Start: 50, End: 130, Reps: 4},
		{OpID: 8, Name: "a.side", Parent: "b.mid", Start: 200, End: 205, Reps: 1},
		{OpID: 8, Name: "a.side", Parent: "b.mid", Start: 210, End: 215, Reps: 1},
		{OpID: 8, Name: "b.mid", Parent: "c.top", Start: 300, End: 400, Reps: 1},
		{OpID: 8, Name: "b.mid", Parent: "c.top", Start: 400, End: 500, Reps: 1},
		{OpID: 8, Name: "c.top", Start: 600, End: 900, Reps: 1},
	}
	tot, self, n := totals(spans), selfTimes(spans), calls(spans)
	check := func(what string, got, want float64) {
		t.Helper()
		if got != want {
			t.Errorf("%s = %v, want %v", what, got, want)
		}
	}
	check("total leaf op 7", tot["a.leaf"][7], 100) // 400 ns over 4 reps
	check("self mid op 7", self["b.mid"][7], 200)   // 300 - 100
	check("self top op 7", self["c.top"][7], 200)   // 500 - 300
	check("total leaf op 8", tot["a.leaf"][8], 30)  // 10 + 20
	check("self mid op 8", self["b.mid"][8], 160)   // 200 - 30 - 10
	check("self top op 8", self["c.top"][8], 100)   // 300 - 200
	check("self leaf op 8", self["a.leaf"][8], 30)  // no children
	if n["b.mid"][8] != 2 || n["c.top"][8] != 1 {
		t.Errorf("calls = %v", n)
	}
	// Per call: op 7 has one mid call of 300, op 8 two of 100 each.
	check("median per call", medianPerCall(tot["b.mid"], n["b.mid"], 1), 200)
}

func TestOperationListsFollowTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, err := w.makeInputs(7, 0.05)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		b, _ := w.makeInputs(7, 0.05)
		c, _ := w.makeInputs(8, 0.05)
		if a.hash != b.hash {
			t.Errorf("%s: same seed, hashes %x and %x", w.name, a.hash, b.hash)
		}
		if a.hash == c.hash {
			t.Errorf("%s: seeds 7 and 8 give the same operation list", w.name)
		}
		for i, p := range a.plans {
			if len(p.ops) == 0 {
				t.Errorf("%s: connection %d has no operations", w.name, i)
			}
		}
	}
}

func TestScheduleIsAbsolute(t *testing.T) {
	due := schedule(1000, 250, 4)
	want := []int64{1000, 1250, 1500, 1750}
	for i := range want {
		if due[i] != want[i] {
			t.Fatalf("schedule = %v, want %v", due, want)
		}
	}
}

// A server stall must be charged to the requests that queue behind it:
// latency counts from the due time. The generator's lateness counts from
// when a request could first have left, so the stall is not the generator's.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const period = 5 * time.Millisecond
	var served atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) == 1 { // the first request stalls for four periods
			time.Sleep(4 * period)
		}
	}))
	defer srv.Close()
	ops := make([]op, 8)
	for i := range ops {
		ops[i] = op{method: "GET", path: "/", class: classSecondary}
	}
	c, err := newConn(srv.URL, ops, false)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	base := time.Now()
	clock := func() int64 { return int64(time.Since(base)) }
	t0 := clock() + int64(period)
	late := c.openLoop(clock, schedule(t0, int64(period), len(ops)), ops)
	if c.failed != 0 || len(c.samples) != len(ops) {
		t.Fatalf("failed=%d samples=%d (%v)", c.failed, len(c.samples), c.firstErr)
	}
	for i, l := range late {
		if l < 0 || l > int64(period) {
			t.Errorf("request %d left %v late on a generator that was never busy", i, time.Duration(l))
		}
	}
	// Request 1 was due one period in but could not leave before the stall
	// ended, three periods later.
	if c.samples[1].start != t0+int64(period) || c.samples[1].dur < int64(2*period) {
		t.Errorf("request behind the stall: start %d (due %d), latency %v; want latency from due time >= %v",
			c.samples[1].start, t0+int64(period), time.Duration(c.samples[1].dur), 2*period)
	}
}

// An ingest list that ends before the window does leaves the daemon
// unloaded; the loop must say so, so that the run is reported invalid.
func TestClosedLoopReportsADryList(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	defer srv.Close()
	ops := []op{{method: "GET", path: "/"}, {method: "GET", path: "/"}}
	c, err := newConn(srv.URL, ops, false)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	var now int64
	clock := func() int64 { now++; return now }
	if c.closedLoop(clock, 1<<40, ops, false) {
		t.Error("a consumable list of 2 ops lasted until the end of time")
	}
	if len(c.samples) != 2 || c.failed != 0 {
		t.Errorf("samples=%d failed=%d (%v), want 2 and 0", len(c.samples), c.failed, c.firstErr)
	}
	if !c.closedLoop(clock, now+8, ops, true) {
		t.Error("a cyclic list ran dry")
	}
}

// A declared metric without a value is an error unless it is a per-layer
// metric this workload does not exercise, which reads 0.
func TestPrintRefusesAnUnmeasuredMetric(t *testing.T) {
	bf := &benchmarkFile{PerLayer: []metricDecl{
		{Name: "core.step_us", Unit: "us"}, {Name: "wal.fsyncs_per_point", Unit: "1/point"}, {Name: "clean.prepare_us", Unit: "us"},
	}}
	durable, _ := workloadByName("ingest_durable")
	memory, _ := workloadByName("read_point")
	o := &outcome{workload: "w", values: map[string]float64{"core.step_us": 3}, attempted: 1}
	var buf bytes.Buffer
	if err := o.print(&buf, bf, true, memory); err != nil {
		t.Errorf("in-memory workload: %v", err)
	} else if !strings.Contains(buf.String(), "w wal.fsyncs_per_point 0 1/point\n") {
		t.Errorf("unexercised metric not printed as 0:\n%s", buf.String())
	}
	if err := o.print(&buf, bf, true, durable); err == nil || !strings.Contains(err.Error(), "wal.fsyncs_per_point") {
		t.Errorf("durable workload without wal.fsyncs_per_point: err = %v", err)
	}
}

func TestParseMetricsSumsLabels(t *testing.T) {
	text := "# HELP x y\n# TYPE x counter\nx{route=\"a\"} 2\nx{route=\"b\"} 3\ny_count 7\nbroken\n"
	m, err := parseMetrics(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if m["x"] != 5 || m["y_count"] != 7 {
		t.Errorf("parsed %v", m)
	}
}

// smallView materialises a real Omega-view in process for ladder tests,
// and a server over it for the top rung.
func smallView(t *testing.T, n int) ([]view.Row, *workload, http.Handler) {
	t.Helper()
	w, err := workloadByName("read_point")
	if err != nil {
		t.Fatal(err)
	}
	engine := core.NewEngine()
	if err := engine.RegisterSeries("raw", dataset.Campus(dataset.CampusConfig{N: n, Seed: 5})); err != nil {
		t.Fatal(err)
	}
	res, err := engine.Exec("CREATE VIEW pv_raw AS DENSITY r OVER t OMEGA delta=0.5, n=8 WINDOW 90 CACHE DISTANCE 0.01 FROM raw")
	if err != nil {
		t.Fatal(err)
	}
	return res.View.SnapshotRows(), w, server.New(engine, server.Config{})
}

// A rung that adds real work to the one below should not be faster on the
// same operation. The in-process point chain, where every step multiplies
// the cost by ten, must hold for 95% of the operations. On the other chains an allocation
// slow path or a collector pause (10-20 us, on whichever rung is running)
// is as large as a step, so they are only held to 80%; steps thinner than
// that noise (query.exec_scalar over probdb.scalar adds 1 us to 200) are
// not compared per operation at all (nor is the 1 us query.parse under the
// 2 us query.exec_point): their self times are medians.
func TestLadderRungsDoNotDecrease(t *testing.T) {
	rows, w, handler := smallView(t, 400)
	srv := httptest.NewServer(handler)
	defer srv.Close()
	chains := []struct {
		rungs []string
		hold  float64
	}{
		{[]string{"storage.lookup", "probdb.point", "server.point"}, 0.95},
		{[]string{"server.point", "http.point"}, 0.80}, // the test's top rung is in-process, 3x not 15x the handler
		{[]string{"query.exec_point", "server.sqlpoint", "http.sqlpoint"}, 0.80},
		{[]string{"probdb.scalar", "server.scalar", "http.scalar"}, 0.80},
		{[]string{"probdb.series", "server.series", "http.series"}, 0.80},
	}
	// A shared host has noisy minutes; noise only ever adds time to a
	// span, so one attempt that holds shows the ordering.
	var tr *tracer
	var complaints []string
	for attempt := 0; attempt < 4; attempt++ {
		tr = newTracer()
		tr.readLadder(w, srv.URL, rows, dataset.Campus(dataset.CampusConfig{N: 400, Seed: 5}), 1, 0.5)
		if tr.err != nil {
			t.Fatal(tr.err)
		}
		tot := totals(tr.spans)
		complaints = nil
		for _, chain := range chains {
			ops, good := 0, 0
			for id := range tot[chain.rungs[len(chain.rungs)-1]] {
				ops++
				good++
				for i := 1; i < len(chain.rungs); i++ {
					if tot[chain.rungs[i]][id] < tot[chain.rungs[i-1]][id] {
						good--
						break
					}
				}
			}
			if ops == 0 || float64(good) < chain.hold*float64(ops) {
				complaints = append(complaints, fmt.Sprintf("chain %v: %d of %d operations never have a rung faster than the one below, want %.0f%%",
					chain.rungs, good, ops, chain.hold*100))
			}
		}
		if len(complaints) == 0 {
			break
		}
	}
	for _, c := range complaints {
		t.Error(c)
	}
	for _, s := range tr.spans {
		if s.End < s.Start || s.Layer == "" || !strings.HasPrefix(s.Name, s.Layer+".") {
			t.Fatalf("malformed span %+v", s)
		}
	}
}

// The smoke test runs every workload end to end at a fiftieth of the
// size, traced, and checks the output contract: each metric BENCHMARK.json
// declares is printed exactly once per run, and the last line is the
// verdict with exactly those metrics.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon binary")
	}
	root, err := findRoot("")
	if err != nil {
		t.Fatal(err)
	}
	bf, err := readBenchmarkFile(root)
	if err != nil {
		t.Fatal(err)
	}
	work := t.TempDir()
	bin, err := buildDaemon(root, work)
	if err != nil {
		t.Fatal(err)
	}
	measured := map[string]bool{} // by any workload: an unexercised per-layer metric may read 0 on some
	for _, wl := range bf.Workloads {
		cfg := config{workload: wl.Name, seed: 3, seconds: 1, trace: true, scale: 0.02, setups: 1,
			tspdbd: bin, work: work, out: t.TempDir()}
		out, err := runWorkload(cfg)
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		if out.failed != 0 || len(out.problems) != 0 {
			t.Errorf("%s: %d failed operations, problems %v", wl.Name, out.failed, out.problems)
		}
		for name := range out.values {
			measured[name] = true
		}
		w, _ := workloadByName(wl.Name)
		for _, trace := range []bool{false, true} {
			decls := bf.EndToEnd
			if trace {
				decls = bf.PerLayer
			}
			var buf bytes.Buffer
			if err := out.print(&buf, bf, trace, w); err != nil {
				t.Fatalf("%s: %v", wl.Name, err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			for _, d := range decls {
				n := 0
				for _, line := range lines {
					if strings.HasPrefix(line, wl.Name+" "+d.Name+" ") {
						n++
					}
				}
				if n != 1 {
					t.Errorf("%s trace=%v: metric %s printed %d times, want once", wl.Name, trace, d.Name, n)
				}
			}
			var vd verdict
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &vd); err != nil {
				t.Fatalf("%s: last line is not the verdict: %v", wl.Name, err)
			}
			if !vd.Correct || vd.Attempted < 1 || vd.Failed != 0 || len(vd.Metrics) != len(decls) {
				t.Errorf("%s trace=%v: verdict %+v with %d metrics, want %d", wl.Name, trace, vd, len(vd.Metrics), len(decls))
			}
			for name, m := range vd.Metrics {
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || (!trace && m.Value <= 0) {
					t.Errorf("%s: metric %s = %v", wl.Name, name, m.Value)
				}
			}
		}
	}
	for _, d := range append(bf.EndToEnd, bf.PerLayer...) {
		if !measured[d.Name] {
			t.Errorf("metric %s is declared in BENCHMARK.json but no workload measures it", d.Name)
		}
	}
}
