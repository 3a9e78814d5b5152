package obs

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"
)

// Per-request stage tracing. A Span is a fixed-size accumulator a
// request stamps as it crosses the pipeline stages (NLP analysis, IR
// retrieval, OLAP compile/execute, QA extraction, cache lookup, shard
// fan-out, WAL append, snapshot publish, reply encode); it lives on the
// caller's stack, so tracing allocates nothing. Tracer.Finish folds the
// stamped durations into the per-stage latency histograms and, when a
// slow-query threshold is armed, logs a sampled per-stage breakdown for
// requests over it.

// Stage identifies one pipeline stage of the serving stack.
type Stage uint8

const (
	StageCacheLookup Stage = iota
	StageNLPAnalyse
	StageIRSearch
	StageQAExtract
	StageOLAPCompile
	StageOLAPExecute
	StageShardFanout
	StageWALAppend
	StageSnapshotPublish
	StageEncode
	// NumStages bounds the Span arrays; keep it last.
	NumStages
)

var stageNames = [NumStages]string{
	"cache_lookup",
	"nlp_analyse",
	"ir_search",
	"qa_extract",
	"olap_compile",
	"olap_execute",
	"shard_fanout",
	"wal_append",
	"snapshot_publish",
	"encode",
}

// String returns the stage's metric label ("ir_search", "wal_append").
func (s Stage) String() string {
	if s < NumStages {
		return stageNames[s]
	}
	return fmt.Sprintf("stage(%d)", uint8(s))
}

// Span accumulates per-stage durations for one request. The zero value
// is ready to use; declare it on the stack and pass its address.
type Span struct {
	d   [NumStages]time.Duration
	set uint16 // bitmask of stamped stages
}

// Observe stamps one stage's duration (accumulating when a stage runs
// more than once in a request).
func (sp *Span) Observe(st Stage, d time.Duration) {
	sp.d[st] += d
	sp.set |= 1 << st
}

// Duration returns a stage's accumulated duration and whether it was
// stamped.
func (sp *Span) Duration(st Stage) (time.Duration, bool) {
	return sp.d[st], sp.set&(1<<st) != 0
}

// breakdown renders the stamped stages as "stage=dur stage=dur", in
// stage order. Slow path only — it allocates.
func (sp *Span) breakdown() string {
	var sb strings.Builder
	for st := Stage(0); st < NumStages; st++ {
		if sp.set&(1<<st) == 0 {
			continue
		}
		if sb.Len() > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(stageNames[st])
		sb.WriteByte('=')
		sb.WriteString(sp.d[st].String())
	}
	return sb.String()
}

// slowConfig is the armed slow-query log (swapped atomically so Finish
// never locks).
type slowConfig struct {
	threshold time.Duration
	logf      func(format string, args ...any)
}

// Tracer owns the per-stage latency histograms
// (dwqa_stage_duration_seconds{stage="..."}) and the sampled slow-query
// log. One Tracer serves all requests of an engine.
type Tracer struct {
	hist [NumStages]*Histogram

	slow     atomic.Pointer[slowConfig]
	lastSlow atomic.Int64 // unix nanos of the last slow-query line
}

// slowLogMinGap rate-limits the slow-query log: at most one breakdown
// line per gap, so a latency storm cannot turn the log into the
// bottleneck. Variable for tests.
var slowLogMinGap = int64(time.Second)

// NewTracer registers the per-stage duration histograms on reg and
// returns the tracer over them.
func NewTracer(reg *Registry) *Tracer {
	t := &Tracer{}
	for st := Stage(0); st < NumStages; st++ {
		t.hist[st] = reg.Histogram(
			"dwqa_stage_duration_seconds",
			"Time spent in each pipeline stage.",
			DefBuckets, L("stage", stageNames[st]))
	}
	return t
}

// StageHistogram returns the histogram behind one stage, for layers
// (store, shard, persistence) that record a stage directly rather than
// through a request span.
func (t *Tracer) StageHistogram(st Stage) *Histogram { return t.hist[st] }

// SetSlowQuery arms (threshold > 0) or disarms (threshold <= 0) the
// slow-query log: a finished request slower than threshold logs its
// per-stage breakdown through logf, sampled to at most one line per
// second.
func (t *Tracer) SetSlowQuery(threshold time.Duration, logf func(format string, args ...any)) {
	if threshold <= 0 || logf == nil {
		t.slow.Store(nil)
		return
	}
	t.slow.Store(&slowConfig{threshold: threshold, logf: logf})
}

// SlowQueryArmed reports whether a slow-query threshold is set.
func (t *Tracer) SlowQueryArmed() bool { return t.slow.Load() != nil }

// Finish folds a request's span into the stage histograms and emits the
// sampled slow-query line when the request's total runtime crosses the
// armed threshold. label is the request's human identity (the question
// text); outcome classifies how it ended ("ok", "error", ...).
func (t *Tracer) Finish(sp *Span, total time.Duration, label, outcome string) {
	for st := Stage(0); st < NumStages; st++ {
		if sp.set&(1<<st) != 0 {
			t.hist[st].Observe(sp.d[st])
		}
	}
	cfg := t.slow.Load()
	if cfg == nil || total < cfg.threshold {
		return
	}
	// Sampled: one line per gap, claimed by CAS so concurrent slow
	// requests elect exactly one logger.
	now := time.Now().UnixNano()
	last := t.lastSlow.Load()
	if now-last < slowLogMinGap || !t.lastSlow.CompareAndSwap(last, now) {
		return
	}
	cfg.logf("slow query: total=%s outcome=%s %s: %q", total, outcome, sp.breakdown(), label)
}
