package engine

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestOutcomeClass(t *testing.T) {
	cases := []struct {
		status int
		want   string
	}{
		{200, "ok"}, {204, "ok"},
		{429, "shed"},
		{504, "timeout"},
		{503, "degraded"},
		{403, "readonly"},
		{400, "client_error"}, {422, "client_error"},
		{500, "error"}, {502, "error"},
	}
	for _, c := range cases {
		if got := outcomeClass(c.status); got != c.want {
			t.Errorf("outcomeClass(%d) = %q, want %q", c.status, got, c.want)
		}
	}
}

// TestRequestMiddlewarePanic pins the request boundary: a panic escaping
// a handler is recovered into a logged 500 carrying the request id, the
// panics counter ticks, and the access line still reports the request.
func TestRequestMiddlewarePanic(t *testing.T) {
	e := &Engine{met: newEngineMetrics()}
	var lines []string
	logf := func(format string, args ...any) {
		lines = append(lines, fmt.Sprintf(format, args...))
	}
	h := requestMiddleware(e, ServerOptions{Logf: logf},
		http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
			panic("handler bug")
		}))

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/trace", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	if got := e.met.panicTotal.Value(); got != 1 {
		t.Errorf("panicTotal = %d, want 1", got)
	}
	if len(lines) != 2 {
		t.Fatalf("logged %d lines (%q), want panic line + access line", len(lines), lines)
	}
	for _, want := range []string{"req=", "panic recovered", "GET /trace", "handler bug"} {
		if !strings.Contains(lines[0], want) {
			t.Errorf("panic line %q missing %q", lines[0], want)
		}
	}
	for _, want := range []string{"req=", "status=500", "outcome=error"} {
		if !strings.Contains(lines[1], want) {
			t.Errorf("access line %q missing %q", lines[1], want)
		}
	}
	// The panic and access lines carry the same request id.
	id := lines[0][:strings.Index(lines[0], " ")]
	if !strings.HasPrefix(lines[1], id+" ") {
		t.Errorf("request ids differ: %q vs %q", lines[0], lines[1])
	}
}
