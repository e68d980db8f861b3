package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
)

// Client is a thin typed client for a tspdbd server. The zero HTTP client
// is replaced with http.DefaultClient; Base is e.g. "http://localhost:8080".
type Client struct {
	Base string
	HTTP *http.Client
}

// NewClient returns a client for the given base URL.
func NewClient(base string) *Client { return &Client{Base: base} }

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// APIError is a non-2xx server response decoded from the error body.
type APIError struct {
	Status  int
	Message string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("server: HTTP %d: %s", e.Status, e.Message)
}

// Conflict reports whether the server rejected the request with 409: an
// out-of-order ingest timestamp (core.ErrOutOfOrder) or a duplicate
// table/stream. Conflicts are resumable — retry past the accepted state —
// unlike 400s, which require fixing the request itself.
func (e *APIError) Conflict() bool { return e.Status == http.StatusConflict }

// do sends a request with a JSON body (nil for none) and decodes the JSON
// response into out (nil to discard).
func (c *Client) do(method, path string, body, out any) error {
	var rd io.Reader
	contentType := ""
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(buf)
		contentType = "application/json"
	}
	return c.doRaw(method, path, rd, contentType, out)
}

// doRaw sends a request with an arbitrary body and decodes the JSON
// response into out (nil to discard).
func (c *Client) doRaw(method, path string, body io.Reader, contentType string, out any) error {
	req, err := http.NewRequest(method, c.Base+path, body)
	if err != nil {
		return err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		var apiErr ErrorResponse
		msg := ""
		if err := json.NewDecoder(resp.Body).Decode(&apiErr); err == nil {
			msg = apiErr.Error
		}
		return &APIError{Status: resp.StatusCode, Message: msg}
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Health fetches GET /healthz.
func (c *Client) Health() (*HealthResponse, error) {
	var out HealthResponse
	if err := c.do(http.MethodGet, "/healthz", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// CreateTable registers a raw table from points.
func (c *Client) CreateTable(name string, req CreateTableRequest) (*CreateTableResponse, error) {
	var out CreateTableResponse
	if err := c.do(http.MethodPut, "/tables/"+url.PathEscape(name), req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// CreateTableCSV registers a raw table from a "t,value" CSV stream.
func (c *Client) CreateTableCSV(name string, csv io.Reader) (*CreateTableResponse, error) {
	var out CreateTableResponse
	err := c.doRaw(http.MethodPut, "/tables/"+url.PathEscape(name), csv, "text/csv", &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// OpenStream opens an online stream on a table.
func (c *Client) OpenStream(table string, req OpenStreamRequest) (*OpenStreamResponse, error) {
	var out OpenStreamResponse
	if err := c.do(http.MethodPost, "/tables/"+url.PathEscape(table)+"/stream", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Ingest streams a batch of points and returns the generated view rows.
// The batch commits as a unit: on an error none of its points was stored.
func (c *Client) Ingest(table string, points []PointJSON) (*IngestResponse, error) {
	var out IngestResponse
	err := c.do(http.MethodPost, "/tables/"+url.PathEscape(table)+"/points", IngestRequest{Points: points}, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// Exec runs a Fig. 7 statement on the server.
func (c *Client) Exec(q string) (*QueryResponse, error) {
	var out QueryResponse
	if err := c.do(http.MethodPost, "/query", QueryRequest{Q: q}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// AllViewRows scans every row of a view.
func (c *Client) AllViewRows(view string) (*ViewRowsResponse, error) {
	var out ViewRowsResponse
	if err := c.do(http.MethodGet, "/views/"+url.PathEscape(view)+"/rows", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Checkpoint asks a durable server to flush its WAL into segment files
// and trim the replayed prefix.
func (c *Client) Checkpoint() error {
	return c.do(http.MethodPost, "/checkpoint", nil, nil)
}
