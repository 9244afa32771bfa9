package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"sync"
	"time"
)

// The HTTP plumbing both daemons share: cmd/powerrouted serves a Server
// and cmd/powerroute-coord a coord.Coordinator, and both answer errors,
// JSON replies, request counts, liveness and connection bounds the same
// way through the helpers below.

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

// WriteError answers code with the JSON body {"error": <message>}.
func WriteError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// WriteJSON answers 200 with v as indented JSON.
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// Healthz is the GET /healthz liveness probe.
func Healthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// Requests counts the HTTP requests a daemon serves per handler name, the
// powerrouted_http_requests_total metric family (MetricsText). The zero
// value is ready to use.
type Requests struct {
	mu sync.Mutex
	n  map[string]uint64 // guarded_by: mu
}

// Count wraps h so that every request it serves counts under name.
func (q *Requests) Count(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		q.mu.Lock()
		if q.n == nil {
			q.n = make(map[string]uint64)
		}
		q.n[name]++
		q.mu.Unlock()
		h(w, r)
	}
}

// Counts returns a copy of the per-handler counts.
func (q *Requests) Counts() map[string]uint64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return maps.Clone(q.n)
}

// DecodeJSONBody decodes a JSON ingest body into v, reading at most
// MaxJSONBody bytes. The body must be exactly one JSON value: anything
// but white space after it (a second value, a stray '}' or ']', junk) is
// refused rather than dropped. On failure it returns the status to
// answer: 413 when the body runs past the bound, 400 when it does not
// decode.
func DecodeJSONBody(w http.ResponseWriter, r *http.Request, v any) (int, error) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, int64(MaxJSONBody)))
	err := dec.Decode(v)
	if err == nil {
		if _, err = dec.Token(); err == io.EOF {
			err = nil
		} else if err == nil {
			err = errors.New("body holds more than one JSON value")
		}
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge, fmt.Errorf("body exceeds %d bytes", tooLarge.Limit)
	}
	if err != nil {
		return http.StatusBadRequest, err
	}
	return 0, nil
}

// WriteBodyError answers a request body that could not be read: 413 when
// the body runs, or its header declares it will run, past its bound (an
// *http.MaxBytesError), 400 otherwise.
func WriteBodyError(w http.ResponseWriter, what string, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		WriteError(w, http.StatusRequestEntityTooLarge, "%s: body exceeds %d bytes", what, tooLarge.Limit)
		return
	}
	WriteError(w, http.StatusBadRequest, "%s: %v", what, err)
}

// OpenBatch reads a binary batch request's header through the 64 KiB
// buffered reader its rows are then read from, and checks that the batch
// is of the route's kind ("demand" on /v1/demand, "prices" on
// /v1/prices). A price batch declaring more than MaxPriceBatchBody bytes
// of rows fails with an *http.MaxBytesError (413 through WriteBodyError);
// any other error is the request's fault (400).
func OpenBatch(r *http.Request, kind string) (*bufio.Reader, *BatchHeader, error) {
	br := bufio.NewReaderSize(r.Body, maxBatchHeader)
	h, err := ParseBatchHeader(br)
	if err != nil {
		return nil, nil, err
	}
	if h.Kind != kind {
		return nil, nil, fmt.Errorf("batch kind %q on %s", h.Kind, r.URL.Path)
	}
	if h.Kind == "prices" && int64(h.Rows)*int64(h.Cols)*8 > MaxPriceBatchBody {
		return nil, nil, fmt.Errorf("%d rows of %d prices: %w", h.Rows, h.Cols, &http.MaxBytesError{Limit: MaxPriceBatchBody})
	}
	return br, h, nil
}
