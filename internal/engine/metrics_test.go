package engine_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dwqa/internal/engine"
	"dwqa/internal/obs"
)

// logCapture is a concurrency-safe Logf sink for access-log and
// slow-query assertions.
type logCapture struct {
	mu    sync.Mutex
	lines []string
}

func (c *logCapture) logf(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lines = append(c.lines, fmt.Sprintf(format, args...))
}

func (c *logCapture) all() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.lines...)
}

func (c *logCapture) joined() string { return strings.Join(c.all(), "\n") }

// scrape fetches GET /metrics through the HTTP façade and returns the
// exposition body.
func scrape(t *testing.T, h http.Handler) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d, want 200", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("Content-Type = %q, want Prometheus text 0.0.4", ct)
	}
	return rec.Body.String()
}

// TestMetricsExposition drives a real ask through the engine and checks
// that one /metrics scrape carries the whole serving story: stage
// latency histograms, the cache counters, the resilience counters and
// the live gauges — the same cells Stats()/healthz reads.
func TestMetricsExposition(t *testing.T) {
	p, eng := newEngine(t, engine.Config{})
	srv := engine.NewServer(eng)
	q := p.WeatherQuestions()[0]

	if r := eng.Ask(context.Background(), q); r.Err != nil {
		t.Fatalf("ask: %v", r.Err)
	}
	if r := eng.Ask(context.Background(), q); r.Err != nil || !r.Cached {
		t.Fatalf("second ask = (err=%v, cached=%v), want cache hit", r.Err, r.Cached)
	}

	body := scrape(t, srv)
	for _, want := range []string{
		// One miss (first ask) and one hit (second) on the shared cells.
		"dwqa_cache_hits_total 1\n",
		"dwqa_cache_misses_total 1\n",
		// The factoid path stamped its stages exactly once — the cache
		// hit must not re-observe them.
		`dwqa_stage_duration_seconds_count{stage="nlp_analyse"} 1`,
		`dwqa_stage_duration_seconds_count{stage="ir_search"} 1`,
		`dwqa_stage_duration_seconds_count{stage="qa_extract"} 1`,
		// Both asks looked the cache up.
		`dwqa_stage_duration_seconds_count{stage="cache_lookup"} 2`,
		// Untouched stages exist with zero observations.
		`dwqa_stage_duration_seconds_count{stage="wal_append"} 0`,
		// Resilience counters, one source with /healthz.
		"dwqa_shed_total 0\n",
		"dwqa_timeouts_total 0\n",
		"dwqa_panics_total 0\n",
		"dwqa_wal_errors_total 0\n",
		// Live gauges read the engine at scrape time.
		"dwqa_cache_entries 1\n",
		"dwqa_inflight 0\n",
		"dwqa_degraded 0\n",
		// The fed corpus is visible.
		"# TYPE dwqa_documents gauge",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", body)
	}
}

// TestMetricsZeroConfigObserves pins that stage timing needs no
// configuration: an engine built from a zero Config hands out live
// histograms and one cold ask lands in the ir_search stage.
func TestMetricsZeroConfigObserves(t *testing.T) {
	p, eng := newEngine(t, engine.Config{})
	if eng.StageHistogram(obs.StageIRSearch) == nil || eng.WALFsyncHistogram() == nil {
		t.Fatal("zero Config engine returned a nil histogram")
	}
	if r := eng.Ask(context.Background(), p.WeatherQuestions()[0]); r.Err != nil {
		t.Fatalf("ask: %v", r.Err)
	}
	body := scrape(t, engine.NewServer(eng))
	if want := `dwqa_stage_duration_seconds_count{stage="ir_search"} 1`; !strings.Contains(body, want) {
		t.Errorf("exposition missing %q:\n%s", want, body)
	}
}

// TestSlowQueryLog arms an absurdly low threshold so a single real ask
// crosses it and checks the sampled line carries the per-stage
// breakdown, the outcome and the question.
func TestSlowQueryLog(t *testing.T) {
	p, eng := newEngine(t, engine.Config{})
	q := p.WeatherQuestions()[0]

	var slow logCapture
	eng.SetSlowQueryLog(time.Nanosecond, slow.logf)
	if r := eng.Ask(context.Background(), q); r.Err != nil {
		t.Fatalf("ask: %v", r.Err)
	}
	lines := slow.all()
	if len(lines) != 1 {
		t.Fatalf("slow-query lines = %d (%q), want 1", len(lines), lines)
	}
	for _, want := range []string{"slow query:", "outcome=ok", "nlp_analyse=", "ir_search=", "qa_extract=", q} {
		if !strings.Contains(lines[0], want) {
			t.Errorf("slow-query line %q missing %q", lines[0], want)
		}
	}

	// Disarming stops the log.
	eng.SetSlowQueryLog(0, nil)
	eng.InvalidateCache()
	if r := eng.Ask(context.Background(), q); r.Err != nil {
		t.Fatalf("ask: %v", r.Err)
	}
	if got := slow.all(); len(got) != 1 {
		t.Errorf("disarmed slow-query log still fired: %q", got[1:])
	}
}

// TestAccessLog checks the structured per-request line: request id,
// method, path, status and the shared outcome vocabulary.
func TestAccessLog(t *testing.T) {
	_, eng := newEngine(t, engine.Config{})
	var access logCapture
	srv := engine.NewServerWith(eng, engine.ServerOptions{Logf: access.logf})

	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /healthz = %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/ask", strings.NewReader(`{}`)))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("empty POST /ask = %d, want 400", rec.Code)
	}

	lines := access.all()
	if len(lines) != 2 {
		t.Fatalf("access lines = %d (%q), want 2", len(lines), lines)
	}
	for _, want := range []string{"req=", "GET /healthz", "status=200", "outcome=ok", "dur="} {
		if !strings.Contains(lines[0], want) {
			t.Errorf("access line %q missing %q", lines[0], want)
		}
	}
	for _, want := range []string{"POST /ask", "status=400", "outcome=client_error"} {
		if !strings.Contains(lines[1], want) {
			t.Errorf("access line %q missing %q", lines[1], want)
		}
	}

	// Quiet suppresses access lines entirely.
	var quiet logCapture
	qsrv := engine.NewServerWith(eng, engine.ServerOptions{Logf: quiet.logf, Quiet: true})
	qsrv.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/healthz", nil))
	if got := quiet.all(); len(got) != 0 {
		t.Errorf("quiet server logged %q", got)
	}
}

// TestShardReplicaGauges installs a replication reporter and checks the
// per-shard seq/lag gauges read it at scrape time.
func TestShardReplicaGauges(t *testing.T) {
	_, eng := newEngine(t, engine.Config{})
	stats := []engine.ShardStat{{Shard: 0, Seq: 42, Lag: 3}, {Shard: 1, Seq: 40, Lag: 5}}
	eng.SetShardStats(func() []engine.ShardStat { return stats })

	body := scrape(t, engine.NewServer(eng))
	for _, want := range []string{
		`dwqa_shard_replica_seq{shard="0"} 42`,
		`dwqa_shard_replica_lag{shard="0"} 3`,
		`dwqa_shard_replica_seq{shard="1"} 40`,
		`dwqa_shard_replica_lag{shard="1"} 5`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// The gauges track the reporter live: a later value shows on the
	// next scrape with no re-registration.
	stats[1].Lag = 0
	if body := scrape(t, engine.NewServer(eng)); !strings.Contains(body, `dwqa_shard_replica_lag{shard="1"} 0`) {
		t.Error("gauge did not track the reporter's new value")
	}
}

// TestMetricsEdgeGauges covers the gauge branches serving never takes on
// the happy path: an index-less engine reports 0 documents/passages, the
// degraded latch flips dwqa_degraded to 1, and a shard gauge whose
// reporter shrank below the registered shard count reads 0 instead of
// indexing past the end.
func TestMetricsEdgeGauges(t *testing.T) {
	p, eng := newEngine(t, engine.Config{})
	srv := engine.NewServer(eng)

	bare, err := engine.New(engine.Config{}, p.QA, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	bareBody := scrape(t, engine.NewServer(bare))
	for _, want := range []string{"dwqa_documents 0\n", "dwqa_passages 0\n"} {
		if !strings.Contains(bareBody, want) {
			t.Errorf("index-less exposition missing %q", want)
		}
	}

	eng.EnterDegradedForTest("metrics edge test")
	if body := scrape(t, srv); !strings.Contains(body, "dwqa_degraded 1\n") {
		t.Error("degraded latch not reflected in dwqa_degraded")
	}

	stats := []engine.ShardStat{{Shard: 0, Seq: 5, Lag: 1}, {Shard: 1, Seq: 7, Lag: 2}}
	eng.SetShardStats(func() []engine.ShardStat { return stats })
	stats = stats[:1]
	body := scrape(t, srv)
	if !strings.Contains(body, `dwqa_shard_replica_seq{shard="0"} 5`) {
		t.Error("shard 0 seq not exported")
	}
	for _, want := range []string{
		`dwqa_shard_replica_seq{shard="1"} 0`,
		`dwqa_shard_replica_lag{shard="1"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("shrunken reporter: want %q to read 0", want)
		}
	}
}
