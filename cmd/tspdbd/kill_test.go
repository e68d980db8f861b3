package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
)

// TestSIGKILLRecovery is the end-to-end durability proof for the daemon:
// a real tspdbd process with -data-dir is killed with SIGKILL in the
// middle of an ingest stream, restarted on the same directory, and must
// serve exactly the acknowledged pre-kill state — every acked view row
// and the same /rangeprob answers — while remaining fully writable.
func TestSIGKILLRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon binary")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("go toolchain unavailable: %v", err)
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "tspdbd")
	if out, err := exec.Command(goBin, "build", "-o", bin, "repro/cmd/tspdbd").CombinedOutput(); err != nil {
		t.Fatalf("build daemon: %v\n%s", err, out)
	}
	dataDir := filepath.Join(dir, "data")

	proc, client := startDaemon(t, bin, dataDir)
	health := waitHealthy(t, client)
	if !health.Durable {
		t.Fatal("daemon with -data-dir reports durable=false")
	}

	// Warm table + stream, then acked ingest batches.
	const h = 16
	warm := make([]server.PointJSON, h)
	for i := range warm {
		warm[i] = server.PointJSON{T: int64(i + 1), V: 20 + float64(i%5)}
	}
	if _, err := client.CreateTable("sensor", server.CreateTableRequest{Points: warm}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.OpenStream("sensor", server.OpenStreamRequest{
		View: "pv", H: h, Delta: 0.5, N: 2,
	}); err != nil {
		t.Fatal(err)
	}
	nextT := int64(h + 1)
	var ackedRows []server.RowJSON
	for batch := 0; batch < 3; batch++ {
		pts := make([]server.PointJSON, 5)
		for i := range pts {
			pts[i] = server.PointJSON{T: nextT, V: 20 + float64((batch+i)%7)}
			nextT++
		}
		resp, err := client.Ingest("sensor", pts)
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		ackedRows = append(ackedRows, resp.Rows...)
	}

	// The acknowledged pre-kill state, as served.
	preRows, err := client.AllViewRows("pv")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(preRows.Rows, ackedRows) {
		t.Fatalf("served rows differ from acked ingest responses: %d vs %d", len(preRows.Rows), len(ackedRows))
	}
	probeT := int64(h + 2)
	preProb, err := rangeProb(client, "pv", probeT, -1000, 1000)
	if err != nil {
		t.Fatal(err)
	}

	// SIGKILL mid-stream: a large batch is in flight when the process
	// dies, so the WAL tail may end in a torn, unacknowledged record.
	inflight := make([]server.PointJSON, 2000)
	for i := range inflight {
		inflight[i] = server.PointJSON{T: nextT, V: 20 + float64(i%9)}
		nextT++
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		client.Ingest("sensor", inflight) // racing the kill; outcome intentionally unknown
	}()
	time.Sleep(10 * time.Millisecond)
	if err := proc.Process.Kill(); err != nil {
		t.Fatalf("SIGKILL: %v", err)
	}
	proc.Wait()
	<-done

	// Restart on the same directory.
	_, client2 := startDaemon(t, bin, dataDir)
	if h := waitHealthy(t, client2); !h.Durable {
		t.Fatal("restarted daemon reports durable=false")
	}
	postRows, err := client2.AllViewRows("pv")
	if err != nil {
		t.Fatal(err)
	}
	// Every acked row survives, in order; anything beyond the acked
	// prefix can only be fully committed steps of the in-flight batch.
	if len(postRows.Rows) < len(ackedRows) {
		t.Fatalf("lost acked rows: recovered %d < acked %d", len(postRows.Rows), len(ackedRows))
	}
	if !reflect.DeepEqual(postRows.Rows[:len(ackedRows)], ackedRows) {
		t.Fatal("recovered rows diverge from the acked prefix")
	}
	for i, r := range postRows.Rows[len(ackedRows):] {
		if r.T <= ackedRows[len(ackedRows)-1].T {
			t.Fatalf("phantom row %d at t=%d before the acked frontier", i, r.T)
		}
	}
	postProb, err := rangeProb(client2, "pv", probeT, -1000, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if postProb != preProb {
		t.Fatalf("rangeprob changed across crash: %v -> %v", preProb, postProb)
	}

	// The recovered daemon is live: a fresh stream on the recovered raw
	// table ingests past the recovered frontier into a new view.
	lastT := postRows.Rows[len(postRows.Rows)-1].T
	if _, err := client2.OpenStream("sensor", server.OpenStreamRequest{
		View: "pv2", H: h, Delta: 0.5, N: 2,
	}); err != nil {
		t.Fatalf("reopen stream after recovery: %v", err)
	}
	resp, err := client2.Ingest("sensor", []server.PointJSON{{T: lastT + 1, V: 21}, {T: lastT + 2, V: 22}})
	if err != nil {
		t.Fatalf("ingest after recovery: %v", err)
	}
	if resp.Ingested != 2 {
		t.Fatalf("ingest after recovery acked %d of 2", resp.Ingested)
	}
	if err := client2.Checkpoint(); err != nil {
		t.Fatalf("POST /checkpoint: %v", err)
	}
}

// startDaemon launches the built binary on a fresh port against dataDir
// and registers a cleanup kill.
func startDaemon(t *testing.T, bin, dataDir string) (*exec.Cmd, *server.Client) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	var logs strings.Builder
	cmd := exec.Command(bin, "-addr", addr, "-data-dir", dataDir)
	cmd.Stdout = &logs
	cmd.Stderr = &logs
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
		if t.Failed() {
			t.Logf("daemon %s output:\n%s", addr, logs.String())
		}
	})
	return cmd, server.NewClient("http://" + addr)
}

// waitHealthy polls /healthz until the daemon answers.
func waitHealthy(t *testing.T, client *server.Client) *server.HealthResponse {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	var lastErr error
	for time.Now().Before(deadline) {
		h, err := client.Health()
		if err == nil {
			return h
		}
		lastErr = err
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatal(fmt.Errorf("daemon never became healthy: %w", lastErr))
	return nil
}

// rangeProb asks the daemon's /rangeprob for P(lo < R_t <= hi) at one
// timestamp of a view.
func rangeProb(client *server.Client, view string, t int64, lo, hi float64) (float64, error) {
	q := url.Values{
		"t":  {strconv.FormatInt(t, 10)},
		"lo": {strconv.FormatFloat(lo, 'g', -1, 64)},
		"hi": {strconv.FormatFloat(hi, 'g', -1, 64)},
	}
	resp, err := http.Get(client.Base + "/views/" + url.PathEscape(view) + "/rangeprob?" + q.Encode())
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var out server.RangeProbResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK || out.Prob == nil {
		return 0, fmt.Errorf("GET /rangeprob: HTTP %d, prob %v", resp.StatusCode, out.Prob)
	}
	return *out.Prob, nil
}
