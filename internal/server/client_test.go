package server

import (
	"fmt"
	"net/http"
	"net/url"
	"strconv"
)

// The Client methods below are called by tests alone; the tspdb CLI and
// the benchmark, the daemon's other clients, use none of them.

// ViewRows scans a view's rows with timestamp in [from, to].
func (c *Client) ViewRows(view string, from, to int64) (*ViewRowsResponse, error) {
	var out ViewRowsResponse
	path := "/views/" + url.PathEscape(view) + "/rows?from=" + strconv.FormatInt(from, 10) +
		"&to=" + strconv.FormatInt(to, 10)
	if err := c.do(http.MethodGet, path, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// RangeProb asks P(lo < R_t <= hi) at one timestamp.
func (c *Client) RangeProb(view string, t int64, lo, hi float64) (float64, error) {
	var out RangeProbResponse
	// url.Values percent-escapes the '+' of exponent-formatted floats,
	// which a hand-built query string would leave to decode as a space.
	q := url.Values{
		"t":  {strconv.FormatInt(t, 10)},
		"lo": {strconv.FormatFloat(lo, 'g', -1, 64)},
		"hi": {strconv.FormatFloat(hi, 'g', -1, 64)},
	}
	path := "/views/" + url.PathEscape(view) + "/rangeprob?" + q.Encode()
	if err := c.do(http.MethodGet, path, nil, &out); err != nil {
		return 0, err
	}
	if out.Prob == nil {
		return 0, fmt.Errorf("server: rangeprob response missing prob")
	}
	return *out.Prob, nil
}

// TopK asks for the k most probable Omega ranges at one timestamp.
func (c *Client) TopK(view string, t int64, k int) ([]RowJSON, error) {
	var out TopKResponse
	path := fmt.Sprintf("/views/%s/topk?t=%d&k=%d", url.PathEscape(view), t, k)
	if err := c.do(http.MethodGet, path, nil, &out); err != nil {
		return nil, err
	}
	return out.Rows, nil
}

// Buckets runs the bucketed query (Fig. 1 rooms) at one timestamp.
func (c *Client) Buckets(view string, t int64, buckets []BucketJSON) ([]BucketProbJSON, error) {
	var out BucketsResponse
	err := c.do(http.MethodPost, "/views/"+url.PathEscape(view)+"/buckets",
		BucketsRequest{T: t, Buckets: buckets}, &out)
	if err != nil {
		return nil, err
	}
	return out.Buckets, nil
}

// Series fetches the fused multi-statistic endpoint: stats selects a
// comma-separated subset of "expected,prob,count" ("" selects all three),
// lo/hi give the value range that prob and count need, and [from, to]
// bounds the time window.
func (c *Client) Series(view, stats string, lo, hi float64, from, to int64) (*SeriesResponse, error) {
	q := url.Values{
		"lo":   {strconv.FormatFloat(lo, 'g', -1, 64)},
		"hi":   {strconv.FormatFloat(hi, 'g', -1, 64)},
		"from": {strconv.FormatInt(from, 10)},
		"to":   {strconv.FormatInt(to, 10)},
	}
	if stats != "" {
		q.Set("stats", stats)
	}
	var out SeriesResponse
	path := "/views/" + url.PathEscape(view) + "/series?" + q.Encode()
	if err := c.do(http.MethodGet, path, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}
