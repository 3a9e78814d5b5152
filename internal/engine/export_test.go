package engine

import (
	"time"

	"dwqa/internal/qa"
)

// Test seams for the external engine_test package. The engine has no
// pluggable extraction in its public API (the qa.Systems are the real
// modules); these setters let resilience tests inject panicking, slow or
// stateful work functions without widening the production surface.

// SetAnswerFnForTest replaces the per-question factoid answer function.
func (e *Engine) SetAnswerFnForTest(fn func(string) (*qa.Result, error)) {
	e.answerFn = func(q string) (*qa.Result, qa.Timings, error) {
		r, err := fn(q)
		return r, qa.Timings{}, err
	}
}

// SetHarvestFnForTest replaces the per-question harvest function.
func (e *Engine) SetHarvestFnForTest(fn func(string) ([]qa.Answer, *qa.Result, error)) {
	e.harvestFn = func(q string) ([]qa.Answer, *qa.Result, qa.Timings, error) {
		a, r, err := fn(q)
		return a, r, qa.Timings{}, err
	}
}

// SetFullFlushForTest makes every committed feed flush the whole answer
// cache instead of evicting by tag — the oracle selective invalidation
// is checked against. Call it before the engine serves.
func (e *Engine) SetFullFlushForTest(on bool) { e.fullFlush = on }

// EnterDegradedForTest latches degraded read-only mode directly.
func (e *Engine) EnterDegradedForTest(reason string) { e.enterDegraded(reason) }

// SetSnapshotRetryForTest tightens the snapshot publish retry schedule
// and returns a restore function.
func SetSnapshotRetryForTest(retries int, backoff time.Duration) (restore func()) {
	oldR, oldB := snapshotRetries, snapshotBackoff
	snapshotRetries, snapshotBackoff = retries, backoff
	return func() { snapshotRetries, snapshotBackoff = oldR, oldB }
}
