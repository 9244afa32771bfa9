package server

import (
	"net/http"
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
