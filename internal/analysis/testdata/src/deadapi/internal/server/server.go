// Package server holds a wire client whose methods are public API called
// from outside both modules; DeadAPI exempts them by name.
package server

type Client struct{ addr string }

func NewClient(addr string) *Client { return &Client{addr: addr} }

func (c *Client) Ping() string { return c.addr }
