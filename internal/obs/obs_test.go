package obs

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("c_total", "ignored"); again != c {
		t.Fatalf("get-or-create returned a different counter")
	}
	g := r.Gauge("g", "a gauge")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
	labelled := r.Counter("c_total", "", Label{"k", "v"})
	if labelled == c {
		t.Fatalf("labelled series must be distinct from the unlabelled one")
	}
	// Label order must not matter.
	a := r.Counter("lbl_total", "", Label{"a", "1"}, Label{"b", "2"})
	b := r.Counter("lbl_total", "", Label{"b", "2"}, Label{"a", "1"})
	if a != b {
		t.Fatalf("label order created two series")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "")
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on kind mismatch")
		}
	}()
	r.Gauge("x_total", "")
}

func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_seconds", "", []float64{0.01, 0.1, 1})
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(float64(i%4) * 0.05) // 0, .05, .1, .15
			}
		}(w)
	}
	wg.Wait()
	snap := h.Snapshot()
	if snap.Count != workers*perWorker {
		t.Fatalf("count = %d, want %d", snap.Count, workers*perWorker)
	}
	var total int64
	for _, c := range snap.Counts {
		total += c
	}
	if total != snap.Count {
		t.Fatalf("bucket counts sum to %d, count is %d", total, snap.Count)
	}
	// 0 and .05 fall in le=0.01? No: 0 <= 0.01 yes, .05 -> le=0.1, .1 -> le=0.1, .15 -> le=1.
	wantSum := float64(workers) * perWorker / 4 * (0 + 0.05 + 0.1 + 0.15)
	if math.Abs(snap.Sum-wantSum) > 1e-6 {
		t.Fatalf("sum = %v, want %v", snap.Sum, wantSum)
	}
	if snap.Counts[0] != workers*perWorker/4 {
		t.Fatalf("le=0.01 bucket = %d, want %d", snap.Counts[0], workers*perWorker/4)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("req_total", "Requests.", Label{"code", "200"}).Add(3)
	r.Counter("req_total", "Requests.", Label{"code", "500"}).Inc()
	r.Gauge("temp", "Temperature.").Set(21.5)
	r.GaugeFunc("answer", "Computed.", func() float64 { return 42 })
	h := r.Histogram("lat_seconds", "Latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(2)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP req_total Requests.\n",
		"# TYPE req_total counter\n",
		`req_total{code="200"} 3` + "\n",
		`req_total{code="500"} 1` + "\n",
		"# TYPE temp gauge\n",
		"temp 21.5\n",
		"answer 42\n",
		`lat_seconds_bucket{le="0.1"} 1` + "\n",
		`lat_seconds_bucket{le="1"} 2` + "\n",
		`lat_seconds_bucket{le="+Inf"} 3` + "\n",
		"lat_seconds_sum 2.55\n",
		"lat_seconds_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "", Label{"q", "say \"hi\"\nback\\slash"}).Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `esc_total{q="say \"hi\"\nback\\slash"} 1`
	if !strings.Contains(b.String(), want) {
		t.Fatalf("escaped series missing; got:\n%s", b.String())
	}
}

func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "help a").Add(7)
	r.Histogram("h_seconds", "help h", []float64{1}).Observe(0.5)
	var b strings.Builder
	if err := json.NewEncoder(&b).Encode(r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"a_total"`, `"help a"`, `"counter"`, `"h_seconds"`, `"histogram"`} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("JSON dump missing %q in:\n%s", want, b.String())
		}
	}
	snap := r.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot families = %d, want 2", len(snap))
	}
	if snap[0].Name != "a_total" || *snap[0].Series[0].Value != 7 {
		t.Fatalf("unexpected counter dump: %+v", snap[0])
	}
}

func TestSpan(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("span_seconds", "", DurationBuckets)
	sp := StartSpan(h)
	d := sp.End()
	if d < 0 {
		t.Fatalf("negative duration")
	}
	if got := h.Snapshot().Count; got != 1 {
		t.Fatalf("span recorded %d observations, want 1", got)
	}
}
