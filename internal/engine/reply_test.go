package engine_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dwqa/internal/core"
	"dwqa/internal/engine"
	"dwqa/internal/obs"
)

// byDayQuestion is the widest analytic reply of the scenario: one row per
// day of Barcelona's January 2004.
const byDayQuestion = "What is the average temperature in Barcelona in January of 2004 by day?"

// newHandler builds the fed scenario pipeline's engine and its HTTP API
// as a plain handler, so replies can be served without a listener.
func newHandler(tb testing.TB) (http.Handler, *engine.Engine) {
	tb.Helper()
	p := newPipeline(tb)
	if _, err := p.Step5FeedWarehouse(p.WeatherQuestions()); err != nil {
		tb.Fatal(err)
	}
	eng, err := p.Engine()
	if err != nil {
		tb.Fatal(err)
	}
	return engine.NewServer(eng), eng
}

// serve sends one request through the handler and returns the recorded
// reply.
func serve(h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec
}

func questionBody(q string) string {
	b, _ := json.Marshal(map[string]string{"question": q})
	return string(b)
}

// responseBytes reads dwqa_response_bytes_total for one route.
func responseBytes(eng *engine.Engine, route string) uint64 {
	return eng.Metrics().Counter("dwqa_response_bytes_total", "", obs.L("route", route)).Value()
}

// TestServerRepliesCompact: every JSON route, an error reply included,
// answers with one compact line ending in "\n", and an analytic
// question's rows on /ask equal its rows on /ask/olap.
func TestServerRepliesCompact(t *testing.T) {
	srv, _ := newServer(t)
	analytic := questionBody("What is the average temperature in Barcelona by month?")
	for _, tc := range []struct {
		name, method, path, body string
		wantStatus               int
	}{
		{"factoid ask", "POST", "/ask", questionBody("What is the weather like in January of 2004 in El Prat?"), http.StatusOK},
		{"analytic ask", "POST", "/ask", analytic, http.StatusOK},
		{"batch", "POST", "/ask/batch", `{"questions": ["What is the weather like in January of 2004 in El Prat?", "count of weather observations by city"]}`, http.StatusOK},
		{"olap", "POST", "/ask/olap", analytic, http.StatusOK},
		{"harvest", "POST", "/harvest", `{"questions": ["What is the weather like in January of 2004 in El Prat?"]}`, http.StatusOK},
		{"healthz", "GET", "/healthz", "", http.StatusOK},
		{"error", "POST", "/ask", `{}`, http.StatusBadRequest},
	} {
		req, err := http.NewRequest(tc.method, srv.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var body bytes.Buffer
		_, err = body.ReadFrom(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.wantStatus {
			t.Errorf("%s: status = %d, want %d", tc.name, resp.StatusCode, tc.wantStatus)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type = %q", tc.name, ct)
		}
		// Compact JSON holds no newline, so an equal compaction plus the
		// trailing "\n" is exactly one line.
		b := body.Bytes()
		var compact bytes.Buffer
		if err := json.Compact(&compact, b); err != nil {
			t.Errorf("%s: %v in %s", tc.name, err, b)
		} else if !bytes.Equal(append(compact.Bytes(), '\n'), b) {
			t.Errorf("%s: reply is not one compact line ending in \\n: %q", tc.name, b)
		}
	}

	_, askBody := postJSON(t, srv.URL+"/ask", analytic)
	_, olapBody := postJSON(t, srv.URL+"/ask/olap", analytic)
	var ask struct {
		OLAP struct {
			Rows json.RawMessage `json:"rows"`
		} `json:"olap"`
	}
	var olap struct {
		Rows json.RawMessage `json:"rows"`
	}
	if err := json.Unmarshal(askBody, &ask); err != nil {
		t.Fatalf("%v in %s", err, askBody)
	}
	if err := json.Unmarshal(olapBody, &olap); err != nil {
		t.Fatalf("%v in %s", err, olapBody)
	}
	if len(ask.OLAP.Rows) == 0 || !bytes.Equal(ask.OLAP.Rows, olap.Rows) {
		t.Errorf("rows differ between routes:\n/ask      %s\n/ask/olap %s", ask.OLAP.Rows, olap.Rows)
	}
}

// TestResponseBytesDeterministic asks a fixed scenario list on two fresh
// engines: the dwqa_response_bytes_total deltas per route must be
// byte-equal, and the by-day reply's size is pinned so a change to the
// wire form shows.
func TestResponseBytesDeterministic(t *testing.T) {
	routes := []string{"/ask", "/ask/olap", "/healthz"}
	deltas := func() (string, uint64) {
		h, eng := newHandler(t)
		before := make([]uint64, len(routes))
		for i, route := range routes {
			before[i] = responseBytes(eng, route)
		}
		ask := func(path, q string) {
			if rec := serve(h, "POST", path, questionBody(q)); rec.Code != http.StatusOK {
				t.Fatalf("%s %q: status %d: %s", path, q, rec.Code, rec.Body)
			}
		}
		for _, q := range core.AnalyticQuestions() {
			ask("/ask", q)
			ask("/ask/olap", q)
		}
		for _, q := range []string{
			"What is the weather like in January of 2004 in El Prat?",
			"What is the weather like in February of 2004 in Barajas?",
		} {
			ask("/ask", q)
		}
		serve(h, "POST", "/ask", `{}`) // one error body
		serve(h, "GET", "/healthz", "")

		var b strings.Builder
		for i, route := range routes {
			fmt.Fprintf(&b, "%s=%d ", route, responseBytes(eng, route)-before[i])
		}
		ask("/ask", byDayQuestion) // the miss fills the cache
		cached := responseBytes(eng, "/ask")
		ask("/ask", byDayQuestion)
		return b.String(), responseBytes(eng, "/ask") - cached
	}
	first, byDay1 := deltas()
	second, byDay2 := deltas()
	if first != second || byDay1 != byDay2 {
		t.Fatalf("response byte deltas differ between fresh engines:\n%s by-day %d\n%s by-day %d", first, byDay1, second, byDay2)
	}
	if want := uint64(1800); byDay1 != want {
		t.Errorf("cached by-day reply = %d B, want %d", byDay1, want)
	}
}

// BenchmarkServeAnalyticReply serves the cached by-day /ask reply through
// the handler: with the answer cached, what remains is the HTTP edge,
// the JSON decode of the question and the encode of the 31-row reply.
func BenchmarkServeAnalyticReply(b *testing.B) {
	h, _ := newHandler(b)
	body := questionBody(byDayQuestion)
	if rec := serve(h, "POST", "/ask", body); rec.Code != http.StatusOK {
		b.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	b.ReportAllocs()
	for b.Loop() {
		if rec := serve(h, "POST", "/ask", body); rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
}
