package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"
)

// conn is one keep-alive connection to the daemon and the one goroutine
// allowed to issue requests on it. Requests are built once per op and
// reused, so the timed loop renders nothing and decodes nothing.
type conn struct {
	client  *http.Client
	base    string
	reqs    []*http.Request
	readers []*bytes.Reader

	samples   []sample
	attempted int
	failed    int
	firstErr  error
	// keep retains each 2xx response body (ingest acknowledgements carry
	// the generated rows the crash check needs); otherwise bodies are
	// drained to io.Discard.
	keep   bool
	bodies [][]byte
	buf    bytes.Buffer
}

func newConn(base string, ops []op, keep bool) (*conn, error) {
	c := &conn{
		base: base, keep: keep,
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}},
		reqs:    make([]*http.Request, len(ops)),
		readers: make([]*bytes.Reader, len(ops)),
		samples: make([]sample, 0, 1<<16),
	}
	for i := range ops {
		var body io.Reader
		if ops[i].body != nil {
			c.readers[i] = bytes.NewReader(ops[i].body)
			body = c.readers[i]
		}
		req, err := http.NewRequest(ops[i].method, base+ops[i].path, body)
		if err != nil {
			return nil, err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		c.reqs[i] = req
	}
	return c, nil
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// do sends op i and drains the response. It reports success; failures are
// counted, and the first one is kept for the error message.
func (c *conn) do(ops []op, i int) bool {
	req := c.reqs[i]
	if rd := c.readers[i]; rd != nil {
		rd.Reset(ops[i].body)
		req.Body = io.NopCloser(rd)
	}
	c.attempted++
	resp, err := c.client.Do(req)
	if err == nil {
		if c.keep {
			c.buf.Reset()
			_, err = c.buf.ReadFrom(resp.Body)
		} else {
			_, err = io.Copy(io.Discard, resp.Body)
		}
		resp.Body.Close()
		if err == nil && resp.StatusCode/100 != 2 {
			err = fmt.Errorf("%s %s: HTTP %d", ops[i].method, ops[i].path, resp.StatusCode)
		}
	}
	if err != nil {
		c.failed++
		if c.firstErr == nil {
			c.firstErr = err
		}
		return false
	}
	if c.keep {
		c.bodies = append(c.bodies, append([]byte(nil), c.buf.Bytes()...))
	}
	return true
}

// closedLoop issues ops one after another until the clock passes until,
// each as soon as the previous one completed. A cyclic list wraps around; a
// consumable one (ingest: every point can be sent once) must outlast the
// run, and closedLoop reports whether it did.
func (c *conn) closedLoop(clock func() int64, until int64, ops []op, cyclic bool) (lasted bool) {
	for i := 0; ; i++ {
		if i == len(ops) {
			if !cyclic {
				return false
			}
			i = 0
		}
		start := clock()
		if start >= until {
			return true
		}
		c.do(ops, i)
		c.samples = append(c.samples, sample{start: start, dur: clock() - start, class: ops[i].class})
	}
}

// schedule returns the due times of n requests at a fixed period from t0:
// an absolute schedule, so a late request does not push later ones back.
func schedule(t0, period int64, n int) []int64 {
	due := make([]int64, n)
	for i := range due {
		due[i] = t0 + int64(i)*period
	}
	return due
}

// openLoop sends ops[i] when due[i] arrives, whatever happened to the ones
// before it, and times each from its due time: a stall in the daemon is
// charged to every request that queued behind it. It returns how late the
// generator itself was with each request: the time from when the request
// could first have left (its due time, or the previous answer on this one
// connection if that came later) to when it left. Waiting behind a stalled
// daemon is latency, not lateness, so that a stall cannot invalidate the
// run that measures it.
func (c *conn) openLoop(clock func() int64, due []int64, ops []op) (lateness []int64) {
	var free int64 // when the connection became free
	for i, at := range due {
		if wait := at - clock(); wait > 0 {
			time.Sleep(time.Duration(wait))
		}
		sent := clock()
		c.do(ops, i)
		done := clock()
		c.samples = append(c.samples, sample{start: at, dur: done - at, class: ops[i].class})
		lateness = append(lateness, sent-max(at, free))
		free = done
	}
	return lateness
}

// p95ms is the 95th percentile of nanosecond values, in milliseconds.
func p95ms(ns []int64) float64 {
	ms := make([]float64, len(ns))
	for i, v := range ns {
		ms[i] = float64(v) / 1e6
	}
	sort.Float64s(ms)
	return percentile(ms, 0.95)
}
