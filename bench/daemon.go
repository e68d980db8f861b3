package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/server"
)

// daemon is one tspdbd child process and the untimed, typed client the
// harness uses for set-up and verification (the timed load has its own
// connections, see load.go).
type daemon struct {
	cmd     *exec.Cmd
	base    string
	api     *server.Client
	logs    bytes.Buffer
	started time.Time // just before exec
}

// startDaemon launches bin with default flags on a free loopback port —
// plus -data-dir/-fsync=true when dataDir is set — and returns once
// /healthz answers.
func startDaemon(bin, dataDir string) (*daemon, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	args := []string{"-addr", addr}
	if dataDir != "" {
		args = append(args, "-data-dir", dataDir, "-fsync=true")
	}
	d := &daemon{base: "http://" + addr}
	d.api = &server.Client{Base: d.base, HTTP: &http.Client{Transport: &http.Transport{}}}
	d.cmd = exec.Command(bin, args...)
	d.cmd.Stdout = &d.logs
	d.cmd.Stderr = &d.logs
	d.started = time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	deadline := d.started.Add(20 * time.Second)
	for {
		if _, err = d.api.Health(); err == nil {
			return d, nil
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("daemon never became healthy: %w\n%s", err, d.logs.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// kill sends SIGKILL and waits for the child to be reaped. The OS page
// cache survives, so this models a process crash, not power loss.
func (d *daemon) kill() {
	if d.cmd.ProcessState != nil {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGKILL) // already-exited is fine: Wait reaps either way
	_ = d.cmd.Wait()                          // the exit status of a killed child carries no information
	if tr, ok := d.api.HTTP.Transport.(*http.Transport); ok {
		tr.CloseIdleConnections()
	}
}

// proc reads /proc/<pid>/<file> of the child.
func (d *daemon) proc(file string) (string, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(d.cmd.Process.Pid), file))
	return string(b), err
}

// userHz is the unit of the CPU times in /proc/<pid>/stat; Linux fixes it
// at 100 for user space on every architecture Go supports.
const userHz = 100

// cpuSeconds is the child's utime+stime so far.
func (d *daemon) cpuSeconds() (float64, error) {
	stat, err := d.proc("stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, i.e. 11 and 12 after the ") ".
	i := strings.LastIndexByte(stat, ')')
	f := strings.Fields(stat[i+1:])
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("unparseable /proc stat %q", stat)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unparseable /proc stat %q", stat)
	}
	return (ut + st) / userHz, nil
}

// rssPeakMB is the child's peak resident set (VmHWM).
func (d *daemon) rssPeakMB() (float64, error) {
	status, err := d.proc("status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// scrape fetches GET /metrics and sums every sample by metric name, labels
// dropped: the harness only wants process-wide totals (WAL bytes, fsync
// count, checkpoint time, sigma-cache hits).
func (d *daemon) scrape() (map[string]float64, error) {
	resp, err := d.api.HTTP.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	return parseMetrics(resp.Body)
}

func parseMetrics(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if b := strings.IndexByte(name, '{'); b >= 0 {
			name = name[:b]
		}
		out[name] += v
	}
	return out, sc.Err()
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
