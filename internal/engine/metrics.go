package engine

import (
	"strconv"
	"time"

	"dwqa/internal/obs"
)

// engineMetrics bundles the engine's metrics registry, the per-stage
// request tracer and the counter handles the serving paths increment.
// The counters are the single source of truth: Stats()/healthz and the
// /metrics exposition both read them, so the two views can never drift.
type engineMetrics struct {
	reg    *obs.Registry
	tracer *obs.Tracer

	cacheHits     *obs.Counter
	cacheMisses   *obs.Counter
	cacheEvicted  *obs.Counter
	shedTotal     *obs.Counter
	timeoutTotal  *obs.Counter
	panicTotal    *obs.Counter
	queueWait     *obs.Histogram
	walFsync      *obs.Histogram
	snapshotBytes *obs.Gauge
}

func newEngineMetrics() *engineMetrics {
	reg := obs.NewRegistry()
	return &engineMetrics{
		reg:    reg,
		tracer: obs.NewTracer(reg),
		cacheHits: reg.Counter("dwqa_cache_hits_total",
			"Answer-cache hits."),
		cacheMisses: reg.Counter("dwqa_cache_misses_total",
			"Answer-cache misses."),
		cacheEvicted: reg.Counter("dwqa_cache_evicted_total",
			"Answer-cache entries evicted by selective feed invalidation."),
		shedTotal: reg.Counter("dwqa_shed_total",
			"Requests rejected by the admission gate."),
		timeoutTotal: reg.Counter("dwqa_timeouts_total",
			"Requests whose deadline expired."),
		panicTotal: reg.Counter("dwqa_panics_total",
			"Panics recovered at the worker or request boundary."),
		queueWait: reg.Histogram("dwqa_gate_queue_wait_seconds",
			"Time saturated requests waited for an admission slot.", obs.DefBuckets),
		walFsync: reg.Histogram("dwqa_wal_fsync_seconds",
			"WAL fsync latency.", obs.IOBuckets),
		snapshotBytes: reg.Gauge("dwqa_snapshot_bytes",
			"Size of the last published snapshot."),
	}
}

// registerEngineFuncs registers the gauges and counter funcs that read
// live engine state at scrape time. Called once from New, after the
// engine's fields are wired; the durability funcs read through the
// engine's own accessors so they track SetDurability/SetSnapshotter
// calls made later.
func (m *engineMetrics) registerEngineFuncs(e *Engine) {
	reg := m.reg
	reg.GaugeFunc("dwqa_cache_entries",
		"Live answer-cache entries.",
		func() float64 { return float64(e.cache.len()) })
	reg.GaugeFunc("dwqa_inflight",
		"Currently admitted requests.",
		func() float64 { return float64(e.gate.Inflight()) })
	reg.GaugeFunc("dwqa_queued",
		"Requests waiting for an admission slot.",
		func() float64 { return float64(e.gate.Queued()) })
	reg.CounterFunc("dwqa_generation_total",
		"Committed warehouse feeds.",
		func() float64 { return float64(e.generation.Load()) })
	reg.GaugeFunc("dwqa_degraded",
		"1 while the engine is latched degraded read-only.",
		func() float64 {
			if degraded, _ := e.Degraded(); degraded {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("dwqa_documents",
		"Indexed documents served.",
		func() float64 {
			if e.index == nil {
				return 0
			}
			return float64(e.index.DocCount())
		})
	reg.GaugeFunc("dwqa_passages",
		"Passage windows served.",
		func() float64 {
			if e.index == nil {
				return 0
			}
			return float64(e.index.PassageCount())
		})
	reg.GaugeFunc("dwqa_wal_seq",
		"Highest WAL sequence across the wired stores (0 when not durable).",
		func() float64 {
			if snap := e.getSnapshotter(); snap != nil {
				return float64(snap.Seq())
			}
			if _, st, _ := e.durability(); st != nil {
				return float64(st.Seq())
			}
			return 0
		})
	reg.CounterFunc("dwqa_wal_errors_total",
		"Journal appends refused by the store.",
		func() float64 {
			if snap := e.getSnapshotter(); snap != nil {
				return float64(snap.WALErrors())
			}
			if _, st, _ := e.durability(); st != nil {
				return float64(st.WALErrors())
			}
			return 0
		})
}

// Metrics returns the engine's metrics registry — the source behind
// GET /metrics. Layers below the engine (store, shard, seeder) register
// or receive their instruments from it so one scrape covers the stack.
func (e *Engine) Metrics() *obs.Registry { return e.met.reg }

// StageHistogram returns the latency histogram behind one pipeline
// stage. Callers wiring lower layers (WAL append, shard fan-out) pass
// it down.
func (e *Engine) StageHistogram(st obs.Stage) *obs.Histogram {
	return e.met.tracer.StageHistogram(st)
}

// WALFsyncHistogram returns the dwqa_wal_fsync_seconds histogram for
// store wiring.
func (e *Engine) WALFsyncHistogram() *obs.Histogram { return e.met.walFsync }

// SetSlowQueryLog arms (threshold > 0) or disarms the sampled
// slow-query log: a request slower than threshold logs its per-stage
// span breakdown through logf, at most one line per second.
func (e *Engine) SetSlowQueryLog(threshold time.Duration, logf func(format string, args ...any)) {
	e.met.tracer.SetSlowQuery(threshold, logf)
}

// registerShardGauges registers per-shard replica position gauges
// (dwqa_shard_replica_seq/lag{shard="N"}) reading the installed
// ShardStat reporter at scrape time. Re-registration with a different
// shard count extends the set; gauges for shards the current reporter
// no longer covers read 0.
func (e *Engine) registerShardGauges(n int) {
	for i := 0; i < n; i++ {
		shard := i
		label := obs.L("shard", strconv.Itoa(shard))
		e.met.reg.GaugeFunc("dwqa_shard_replica_seq",
			"Highest WAL sequence observed for the shard.",
			func() float64 {
				if st, ok := e.shardStat(shard); ok {
					return float64(st.Seq)
				}
				return 0
			}, label)
		e.met.reg.GaugeFunc("dwqa_shard_replica_lag",
			"WAL records observed on the leader but not yet applied.",
			func() float64 {
				if st, ok := e.shardStat(shard); ok {
					return float64(st.Lag)
				}
				return 0
			}, label)
	}
}

// shardStat reads one shard's current replication position.
func (e *Engine) shardStat(i int) (ShardStat, bool) {
	fn := e.shardStats.Load()
	if fn == nil {
		return ShardStat{}, false
	}
	stats := (*fn)()
	if i >= len(stats) {
		return ShardStat{}, false
	}
	return stats[i], true
}
