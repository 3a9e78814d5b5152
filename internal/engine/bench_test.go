package engine_test

import (
	"context"
	"errors"
	"testing"

	"dwqa/internal/engine"
	"dwqa/internal/qa"
)

// BenchmarkAskShedding measures the rejection fast path: the single
// inflight slot is held by a blocked request, there is no wait queue, and
// every Ask must be turned away immediately with ErrShed. ns/op is the
// cost of saying no under overload — the latency floor of the HTTP 429
// path, which must stay trivially cheap so an overloaded engine spends
// its cycles on admitted work, not on rejections.
func BenchmarkAskShedding(b *testing.B) {
	p := newPipeline(b)
	eng, err := engine.New(engine.Config{
		MaxInflight: 1, CacheSize: -1,
	}, p.QA, nil, nil, p.Index)
	if err != nil {
		b.Fatal(err)
	}
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	eng.SetAnswerFnForTest(blockingAnswer(started, release))
	done := make(chan struct{})
	go func() {
		eng.Ask(context.Background(), "occupier")
		close(done)
	}()
	<-started

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := eng.Ask(context.Background(), "overload probe"); !errors.Is(r.Err, engine.ErrShed) {
			b.Fatalf("want ErrShed while saturated, got %v", r.Err)
		}
	}
	b.StopTimer()
	close(release)
	<-done
}

// BenchmarkCacheFeedInvalidation measures what the tag-based cache
// invalidation buys a serving engine under mixed feed/ask traffic: the
// same workload (seven asks, then one single-question harvest feed,
// repeated) runs against selective invalidation and against the legacy
// flush-everything-on-feed strategy. The reported hit-rate metric is
// the headline number — a feed under full flush zeroes the cache, so
// every pool entry is recomputed afterwards, while selective eviction
// drops only the entries whose dimension members the feed actually
// touched (factoid entries survive outright). ns/op follows the hit
// rate: a hit is a map lookup, a miss replays question analysis,
// retrieval and extraction.
func BenchmarkCacheFeedInvalidation(b *testing.B) {
	for _, bm := range []struct {
		name      string
		fullFlush bool
	}{
		{"selective", false},
		{"full-flush", true},
	} {
		b.Run(bm.name, func(b *testing.B) {
			eng := newFlushConfiguredEngine(b, bm.fullFlush)
			ctx := context.Background()
			harvest := eng.DefaultHarvest()
			pool := []string{
				"What is the weather like in January of 2004 in El Prat?",
				"What is the weather like in February of 2004 in Barajas?",
				"What is the average temperature in Barcelona by month?",
				"How many tickets were sold to Barcelona in January of 2004?",
				"count of weather observations by city",
			}
			feeds := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%8 == 7 {
					batch := harvest[feeds%len(harvest) : feeds%len(harvest)+1]
					if _, _, err := eng.HarvestAll(ctx, batch); err != nil {
						b.Fatal(err)
					}
					feeds++
					continue
				}
				if r := eng.Ask(ctx, pool[i%len(pool)]); r.Err != nil {
					b.Fatal(r.Err)
				}
			}
			b.StopTimer()
			st := eng.Stats()
			if total := st.CacheHits + st.CacheMisses; total > 0 {
				b.ReportMetric(float64(st.CacheHits)/float64(total), "hit-rate")
			}
			b.ReportMetric(float64(st.CacheEvicted), "evictions")
		})
	}
}

// BenchmarkAskAdmission isolates the per-request cost of the resilience
// plumbing — gate acquire/release, deadline context construction, expiry
// bookkeeping — by running the same trivial answer function with the
// serving limits on (the dwqa serve values) and off (the zero Config). The delta between
// the two arms is the admission overhead PERF.md's ≤5% cold-path budget
// refers to; on the cold path that delta is buried under milliseconds of
// question analysis and retrieval.
func BenchmarkAskAdmission(b *testing.B) {
	p := newPipeline(b)
	instant := func(string) (*qa.Result, error) { return &qa.Result{}, nil }
	for _, bm := range []struct {
		name string
		cfg  engine.Config
	}{
		{"limits-on", engine.Config{CacheSize: -1,
			MaxInflight: engine.DefaultMaxInflight, MaxQueue: engine.DefaultMaxQueue,
			AskTimeout: engine.DefaultAskTimeout, HarvestTimeout: engine.DefaultHarvestTimeout}},
		{"limits-off", engine.Config{CacheSize: -1}},
	} {
		b.Run(bm.name, func(b *testing.B) {
			eng, err := engine.New(bm.cfg, p.QA, nil, nil, p.Index)
			if err != nil {
				b.Fatal(err)
			}
			eng.SetAnswerFnForTest(instant)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if r := eng.Ask(context.Background(), "probe"); r.Err != nil {
					b.Fatal(r.Err)
				}
			}
		})
	}
}
