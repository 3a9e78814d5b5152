package obs

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestExpositionGolden pins the Prometheus text exposition format
// byte-for-byte: family sorting, HELP/TYPE lines, label rendering,
// cumulative histogram buckets, _sum/_count, func gauges and value
// formatting. Any change to the wire format must update this golden.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	hits := r.Counter("dwqa_cache_hits_total", "Answer-cache hits.")
	hits.Add(41)
	hits.Inc()
	lag := r.Gauge("dwqa_shard_replica_lag", "Replica apply lag in WAL records.", L("shard", "0"))
	lag.Set(-3)
	r.Gauge("dwqa_shard_replica_lag", "Replica apply lag in WAL records.", L("shard", "1")).Set(7)
	r.GaugeFunc("dwqa_wal_seq", "Highest WAL sequence.", func() float64 { return 12345 })
	r.CounterFunc("dwqa_generation_total", "Committed feeds.", func() float64 { return 2 })
	h := r.Histogram("dwqa_stage_duration_seconds", "Time spent in each pipeline stage.",
		[]float64{0.001, 0.01, 0.1}, L("stage", "ir_search"))
	h.Observe(500 * time.Microsecond)
	h.Observe(500 * time.Microsecond)
	h.Observe(50 * time.Millisecond)
	h.Observe(2 * time.Second)

	const want = `# HELP dwqa_cache_hits_total Answer-cache hits.
# TYPE dwqa_cache_hits_total counter
dwqa_cache_hits_total 42
# HELP dwqa_generation_total Committed feeds.
# TYPE dwqa_generation_total counter
dwqa_generation_total 2
# HELP dwqa_shard_replica_lag Replica apply lag in WAL records.
# TYPE dwqa_shard_replica_lag gauge
dwqa_shard_replica_lag{shard="0"} -3
dwqa_shard_replica_lag{shard="1"} 7
# HELP dwqa_stage_duration_seconds Time spent in each pipeline stage.
# TYPE dwqa_stage_duration_seconds histogram
dwqa_stage_duration_seconds_bucket{stage="ir_search",le="0.001"} 2
dwqa_stage_duration_seconds_bucket{stage="ir_search",le="0.01"} 2
dwqa_stage_duration_seconds_bucket{stage="ir_search",le="0.1"} 3
dwqa_stage_duration_seconds_bucket{stage="ir_search",le="+Inf"} 4
dwqa_stage_duration_seconds_sum{stage="ir_search"} 2.051
dwqa_stage_duration_seconds_count{stage="ir_search"} 4
# HELP dwqa_wal_seq Highest WAL sequence.
# TYPE dwqa_wal_seq gauge
dwqa_wal_seq 12345
`
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestRegistrationIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "")
	b := r.Counter("x_total", "")
	if a != b {
		t.Fatal("re-registering the same counter returned a different handle")
	}
	h1 := r.Histogram("h_seconds", "", nil, L("k", "v"))
	h2 := r.Histogram("h_seconds", "", nil, L("k", "v"))
	if h1 != h2 {
		t.Fatal("re-registering the same histogram returned a different handle")
	}
	if h3 := r.Histogram("h_seconds", "", nil, L("k", "w")); h3 == h1 {
		t.Fatal("different label values shared a histogram")
	}
	// Func re-registration swaps the callback.
	fg := r.GaugeFunc("g", "", func() float64 { return 1 })
	r.GaugeFunc("g", "", func() float64 { return 2 })
	if got := fg.Value(); got != 2 {
		t.Fatalf("re-registered GaugeFunc value = %v, want 2", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	r.Gauge("x_total", "")
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_seconds", "", []float64{0.001, 0.01}, nil...)
	h.Observe(time.Millisecond)     // le="0.001" is upper-inclusive
	h.Observe(time.Millisecond + 1) // next bucket
	h.Observe(time.Hour)            // +Inf
	h.Observe(-time.Second)         // clamps to 0, first bucket
	got := h.BucketCounts()
	want := []uint64{2, 1, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, got[i], want[i], got)
		}
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
	if h.Sum() != time.Millisecond+time.Millisecond+1+time.Hour {
		t.Fatalf("sum = %v", h.Sum())
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Gauge("g", "", L("q", "say \"hi\"\nback\\slash")).Set(1)
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	want := `g{q="say \"hi\"\nback\\slash"} 1`
	if !strings.Contains(sb.String(), want) {
		t.Fatalf("exposition %q does not contain %q", sb.String(), want)
	}
}

func TestSpanAndSlowQueryLog(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(reg)

	var sp Span
	sp.Observe(StageNLPAnalyse, 2*time.Millisecond)
	sp.Observe(StageIRSearch, 3*time.Millisecond)
	sp.Observe(StageIRSearch, 1*time.Millisecond) // accumulates
	if d, ok := sp.Duration(StageIRSearch); !ok || d != 4*time.Millisecond {
		t.Fatalf("ir_search duration = %v ok=%v, want 4ms true", d, ok)
	}
	if _, ok := sp.Duration(StageQAExtract); ok {
		t.Fatal("unstamped stage reported as set")
	}

	var lines []string
	tr.SetSlowQuery(time.Millisecond, func(format string, args ...any) {
		lines = append(lines, fmt.Sprintf(format, args...))
	})
	tr.Finish(&sp, 10*time.Millisecond, "what is the weather", "ok")
	if len(lines) != 1 {
		t.Fatalf("slow-query log lines = %d, want 1 (%v)", len(lines), lines)
	}
	for _, frag := range []string{"nlp_analyse=2ms", "ir_search=4ms", "outcome=ok", `"what is the weather"`} {
		if !strings.Contains(lines[0], frag) {
			t.Fatalf("slow-query line %q missing %q", lines[0], frag)
		}
	}
	if got := tr.StageHistogram(StageIRSearch).Count(); got != 1 {
		t.Fatalf("ir_search histogram count = %d, want 1", got)
	}

	// Sampling: a second slow request inside the gap is swallowed.
	var sp2 Span
	sp2.Observe(StageNLPAnalyse, time.Millisecond)
	tr.Finish(&sp2, 10*time.Millisecond, "again", "ok")
	if len(lines) != 1 {
		t.Fatalf("slow-query sampling leaked: %d lines", len(lines))
	}

	// Disarmed: fast path records histograms only.
	tr.SetSlowQuery(0, nil)
	if tr.SlowQueryArmed() {
		t.Fatal("tracer still armed after disarm")
	}
	tr.Finish(&sp2, time.Hour, "quiet", "ok")
	if len(lines) != 1 {
		t.Fatal("disarmed tracer logged")
	}
}

func TestProcessGauges(t *testing.T) {
	reg := NewRegistry()
	pg := RegisterProcessGauges(reg)
	if pg.HeapAlloc.Value() <= 0 {
		t.Fatal("heap_alloc gauge reported nothing")
	}
	if pg.HeapInuse.Value() <= 0 {
		t.Fatal("heap_inuse gauge reported nothing")
	}
	// RSS may legitimately be 0 where procfs is unavailable; on Linux CI
	// it must be populated.
	if rss := pg.RSS.Value(); rss < 0 {
		t.Fatalf("rss gauge negative: %v", rss)
	}
	var sb strings.Builder
	if _, err := reg.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "dwqa_heap_alloc_bytes") {
		t.Fatal("process gauges missing from exposition")
	}
}

// TestRecordPathAllocatesNothing pins the rule the serving hot path
// relies on: recording into pre-registered instruments and folding a
// stack span into the stage histograms (slow-query log armed but not
// reached) allocates nothing.
func TestRecordPathAllocatesNothing(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("dwqa_test_total", "Test counter.")
	g := r.Gauge("dwqa_test_gauge", "Test gauge.")
	h := r.Histogram("dwqa_test_seconds", "Test histogram.", DefBuckets)
	tr := NewTracer(r)
	tr.SetSlowQuery(time.Hour, func(string, ...any) {})
	allocs := testing.AllocsPerRun(100, func() {
		c.Inc()
		g.Set(3)
		h.Observe(time.Millisecond)
		var sp Span
		sp.Observe(StageIRSearch, time.Millisecond)
		sp.Observe(StageQAExtract, time.Microsecond)
		tr.Finish(&sp, 2*time.Millisecond, "question", "ok")
	})
	if allocs != 0 {
		t.Fatalf("record path allocated %.1f times per request, want 0", allocs)
	}
}
