package server

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestNewHTTPServerBoundsConnections: both daemons serve through
// NewHTTPServer, so a client that never finishes its headers, or an idle
// keep-alive connection, is dropped instead of held forever. Body and
// response time stay unbounded for long batch uploads and checkpoint
// downloads.
func TestNewHTTPServerBoundsConnections(t *testing.T) {
	h := http.NotFoundHandler()
	srv := NewHTTPServer(h)
	if srv.ReadHeaderTimeout != 10*time.Second || srv.IdleTimeout != 2*time.Minute {
		t.Fatalf("ReadHeaderTimeout %v, IdleTimeout %v; want 10s and 2m", srv.ReadHeaderTimeout, srv.IdleTimeout)
	}
	if srv.ReadTimeout != 0 || srv.WriteTimeout != 0 {
		t.Fatalf("ReadTimeout %v, WriteTimeout %v; want both unset", srv.ReadTimeout, srv.WriteTimeout)
	}
	if srv.Handler == nil {
		t.Fatal("handler not installed")
	}
}

// TestWriteJSONRefusesUnencodable: a value WriteJSON cannot encode, such
// as a non-finite float, is answered 500 with a JSON error rather than a
// 200 with an empty body, while an encodable value is the same indented
// 200 as before.
func TestWriteJSONRefusesUnencodable(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteJSON(rec, map[string]float64{"total_cost_usd": math.Inf(1)})
	var failure struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &failure); rec.Code != http.StatusInternalServerError || err != nil || !strings.Contains(failure.Error, "unsupported value") {
		t.Fatalf("non-finite value: got %d %q, want 500 with a JSON error", rec.Code, rec.Body)
	}
	rec = httptest.NewRecorder()
	WriteJSON(rec, map[string]any{"steps": 3, "at": "<now>"})
	if want := "{\n  \"at\": \"\\u003cnow\\u003e\",\n  \"steps\": 3\n}\n"; rec.Code != http.StatusOK || rec.Body.String() != want ||
		rec.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("encodable value: got %d %q (%s), want 200 %q", rec.Code, rec.Body, rec.Header().Get("Content-Type"), want)
	}
}
