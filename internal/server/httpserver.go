package server

import (
	"net/http"
	"time"
)

// Connection time bounds for both daemons' listeners. A client gets
// ReadHeaderTimeout to finish its request headers, so one that sends half
// a header cannot hold a connection and its goroutine forever, and an idle
// keep-alive connection is closed after IdleTimeout. Bodies and responses
// stay unbounded on purpose: long binary batch uploads and checkpoint
// downloads are legitimate.
const (
	ReadHeaderTimeout = 10 * time.Second
	IdleTimeout       = 2 * time.Minute
)

// NewHTTPServer wraps h in an http.Server carrying the connection bounds
// above. cmd/powerrouted and cmd/powerroute-coord both serve through it.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: ReadHeaderTimeout,
		IdleTimeout:       IdleTimeout,
	}
}
