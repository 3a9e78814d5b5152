package engine_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"dwqa/internal/core"
	"dwqa/internal/engine"
	"dwqa/internal/qa"
	"dwqa/internal/store"
)

// Resilience behaviour of the serving layer (DESIGN.md §8): panic
// isolation, admission control, deadlines, degraded read-only mode and
// the snapshot publish retry.

// newEngine builds an engine over a fed pipeline with explicit limits.
func newEngine(t *testing.T, cfg engine.Config) (*core.Pipeline, *engine.Engine) {
	t.Helper()
	p := newPipeline(t)
	eng, err := engine.New(cfg, p.QA, nil, nil, p.Index)
	if err != nil {
		t.Fatal(err)
	}
	return p, eng
}

// TestAskPanicIsolation: a panicking extraction fails only the slots that
// asked the poisoned question; the rest of the batch answers normally and
// the process survives.
func TestAskPanicIsolation(t *testing.T) {
	p, eng := newEngine(t, engine.Config{})
	real := p.QA.Answer
	eng.SetAnswerFnForTest(func(q string) (*qa.Result, error) {
		if strings.Contains(q, "BOOM") {
			panic("injected extractor panic")
		}
		return real(q)
	})

	good := "What is the weather like in January of 2004 in El Prat?"
	results := eng.AskAll(context.Background(), []string{good, "BOOM please", good})
	if err := results[1].Err; !errors.Is(err, engine.ErrPanic) {
		t.Fatalf("poisoned slot Err = %v, want ErrPanic", err)
	}
	if results[1].Result != nil {
		t.Error("poisoned slot must not carry a result")
	}
	for _, i := range []int{0, 2} {
		if results[i].Err != nil || results[i].Result == nil {
			t.Errorf("slot %d = (%v, %v); the panic must not poison the batch", i, results[i].Result, results[i].Err)
		}
	}
	if st := eng.Stats(); st.PanicTotal != 1 {
		t.Errorf("PanicTotal = %d, want 1", st.PanicTotal)
	}
	// The engine still serves after the panic.
	if r := eng.Ask(context.Background(), good); r.Err != nil {
		t.Fatalf("ask after panic: %v", r.Err)
	}
}

// TestHarvestPanicIsolation: same for the harvest path — and the batch
// still commits the questions that extracted cleanly.
func TestHarvestPanicIsolation(t *testing.T) {
	p := newPipeline(t)
	eng, err := p.Engine()
	if err != nil {
		t.Fatal(err)
	}
	harvest := p.WeatherQuestions()[:3]
	realHarvest, _ := p.NewHarvester()
	eng.SetHarvestFnForTest(func(q string) ([]qa.Answer, *qa.Result, error) {
		if q == harvest[1] {
			panic("injected harvester panic")
		}
		return realHarvest.Harvest(q)
	})

	items, total, err := eng.HarvestAll(context.Background(), harvest)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(items[1].Err, engine.ErrPanic) {
		t.Fatalf("poisoned slot Err = %v, want ErrPanic", items[1].Err)
	}
	if items[0].Err != nil || items[2].Err != nil {
		t.Error("panic must not poison the neighbouring questions")
	}
	if total.Loaded == 0 {
		t.Error("clean questions should still have been committed")
	}
	if eng.Generation() != 1 {
		t.Errorf("generation = %d, want 1 (the partial batch committed)", eng.Generation())
	}
}

// blockingAnswer answers by waiting for release, so the test controls how
// long a slot stays occupied.
func blockingAnswer(started chan<- struct{}, release <-chan struct{}) func(string) (*qa.Result, error) {
	return func(string) (*qa.Result, error) {
		started <- struct{}{}
		<-release
		return &qa.Result{}, nil
	}
}

// TestAskShedding: with one inflight slot and no queue, a second request
// is shed immediately with ErrShed and counted.
func TestAskShedding(t *testing.T) {
	_, eng := newEngine(t, engine.Config{MaxInflight: 1, CacheSize: -1})
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	eng.SetAnswerFnForTest(blockingAnswer(started, release))

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		eng.Ask(context.Background(), "occupier")
	}()
	<-started // the slot is held

	r := eng.Ask(context.Background(), "shed me")
	if !errors.Is(r.Err, engine.ErrShed) {
		t.Fatalf("Err = %v, want ErrShed", r.Err)
	}
	st := eng.Stats()
	if st.ShedTotal != 1 {
		t.Errorf("ShedTotal = %d, want 1", st.ShedTotal)
	}
	if st.Inflight != 1 {
		t.Errorf("Inflight = %d, want 1", st.Inflight)
	}

	close(release)
	wg.Wait()
	// The slot freed: the engine admits again.
	if r := eng.Ask(context.Background(), "after"); r.Err != nil {
		t.Fatalf("ask after release: %v", r.Err)
	}
	if st := eng.Stats(); st.Inflight != 0 {
		t.Errorf("Inflight after drain = %d, want 0", st.Inflight)
	}
}

// TestAskQueueTimeout: a queued request gives up with DeadlineExceeded
// when its deadline expires before a slot frees.
func TestAskQueueTimeout(t *testing.T) {
	_, eng := newEngine(t, engine.Config{MaxInflight: 1, MaxQueue: 4, CacheSize: -1})
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	eng.SetAnswerFnForTest(blockingAnswer(started, release))

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		eng.Ask(context.Background(), "occupier")
	}()
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	r := eng.Ask(ctx, "queued past deadline")
	if !errors.Is(r.Err, context.DeadlineExceeded) {
		t.Fatalf("Err = %v, want DeadlineExceeded", r.Err)
	}
	if st := eng.Stats(); st.TimeoutTotal == 0 {
		t.Error("TimeoutTotal should count the expired wait")
	}
	close(release)
	wg.Wait()
}

// TestAskAllDeadlinePartial: a batch that outruns its deadline returns
// the answers finished in time and marks the rest per item — never an
// all-or-nothing failure.
func TestAskAllDeadlinePartial(t *testing.T) {
	_, eng := newEngine(t, engine.Config{Workers: 1, CacheSize: -1})
	var mu sync.Mutex
	answered := 0
	eng.SetAnswerFnForTest(func(q string) (*qa.Result, error) {
		time.Sleep(30 * time.Millisecond)
		mu.Lock()
		answered++
		mu.Unlock()
		return &qa.Result{}, nil
	})

	ctx, cancel := context.WithTimeout(context.Background(), 45*time.Millisecond)
	defer cancel()
	results := eng.AskAll(ctx, []string{"q one", "q two", "q three", "q four"})

	var done, expired int
	for _, r := range results {
		switch {
		case r.Err == nil:
			done++
		case errors.Is(r.Err, context.DeadlineExceeded):
			expired++
		default:
			t.Errorf("unexpected error %v", r.Err)
		}
	}
	if done == 0 {
		t.Error("no slot finished before the deadline; want a partial batch")
	}
	if expired == 0 {
		t.Error("no slot was marked expired; the deadline did not bite")
	}
	if done+expired != 4 {
		t.Errorf("done %d + expired %d != 4", done, expired)
	}
	if st := eng.Stats(); st.TimeoutTotal == 0 {
		t.Error("TimeoutTotal should count the expired batch")
	}
}

// TestZeroConfigLimitsOff pins the zero meaning of the engine limits:
// engine.Config{} admits more concurrent asks than DefaultMaxInflight
// plus DefaultMaxQueue without shedding or queueing, and applies no
// default deadline — a batch task that starts after DefaultAskTimeout
// still answers.
func TestZeroConfigLimitsOff(t *testing.T) {
	_, eng := newEngine(t, engine.Config{})
	const asks = engine.DefaultMaxInflight + engine.DefaultMaxQueue + 8
	started := make(chan struct{}, asks+engine.DefaultWorkers)
	release := make(chan struct{})
	var releaseOnce sync.Once
	releaseAll := func() { releaseOnce.Do(func() { close(release) }) }
	t.Cleanup(releaseAll) // a failed wait must not strand the askers
	eng.SetAnswerFnForTest(blockingAnswer(started, release))

	// One batch with one task more than the worker pool: its last task
	// only starts once the first ones are released, after the wait below.
	batch := make([]string, engine.DefaultWorkers+1)
	for i := range batch {
		batch[i] = fmt.Sprintf("batch question %d", i)
	}
	var wg sync.WaitGroup
	errs := make(chan error, asks+len(batch))
	for i := 0; i < asks; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- eng.Ask(context.Background(), fmt.Sprintf("question %d", i)).Err
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, r := range eng.AskAll(context.Background(), batch) {
			errs <- r.Err
		}
	}()
	for i := 0; i < asks+engine.DefaultWorkers; i++ {
		select {
		case <-started:
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of %d answers started (inflight %d): the zero Config must not bound admission",
				i, asks+engine.DefaultWorkers, eng.Stats().Inflight)
		}
	}
	if st := eng.Stats(); st.Inflight != asks+1 {
		t.Errorf("Inflight = %d, want %d", st.Inflight, asks+1)
	}
	time.Sleep(engine.DefaultAskTimeout + 100*time.Millisecond)
	releaseAll()
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("ask failed under the zero Config: %v", err)
		}
	}
	if st := eng.Stats(); st.ShedTotal != 0 || st.TimeoutTotal != 0 {
		t.Errorf("ShedTotal = %d, TimeoutTotal = %d; want 0 and 0", st.ShedTotal, st.TimeoutTotal)
	}
}

// TestDefaultAskTimeoutApplied: with no caller deadline the configured
// AskTimeout kicks in.
func TestDefaultAskTimeoutApplied(t *testing.T) {
	_, eng := newEngine(t, engine.Config{Workers: 1, AskTimeout: 30 * time.Millisecond, CacheSize: -1})
	eng.SetAnswerFnForTest(func(string) (*qa.Result, error) {
		time.Sleep(20 * time.Millisecond)
		return &qa.Result{}, nil
	})
	results := eng.AskAll(context.Background(), []string{"a", "b", "c", "d"})
	expired := 0
	for _, r := range results {
		if errors.Is(r.Err, context.DeadlineExceeded) {
			expired++
		}
	}
	if expired == 0 {
		t.Error("the default AskTimeout never expired a slot")
	}
}

// TestDegradedModeOnWALFailure is the deterministic core of the chaos
// suite: a WAL append failure during a feed flips the engine into
// degraded read-only mode — asks keep serving, further feeds are refused
// with ErrDegraded, /healthz-level stats say "degraded" — and
// ClearDegraded re-enables feeds once the disk is healthy.
func TestDegradedModeOnWALFailure(t *testing.T) {
	ffs := store.NewFaultFS(store.OS())
	p, _, err := core.OpenPipelineFS(core.DefaultConfig(), t.TempDir(), ffs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Store().Close() })
	eng, err := p.Engine()
	if err != nil {
		t.Fatal(err)
	}
	harvest := p.WeatherQuestions()[:2]

	// Every fsync fails from here: the first journal append of the feed
	// is refused and the batch commit fails.
	faults := make([]store.Fault, 64)
	for i := range faults {
		faults[i] = store.Fault{Op: store.OpSync, Nth: i + 1}
	}
	ffs.Arm(faults...)
	_, _, err = eng.HarvestAll(context.Background(), harvest)
	if !errors.Is(err, engine.ErrDegraded) {
		t.Fatalf("feed over a dead WAL = %v, want ErrDegraded", err)
	}
	if !errors.Is(err, store.ErrWAL) {
		t.Fatalf("err = %v, should still expose the WAL cause", err)
	}
	ffs.Disarm()

	// Latched: the next feed is refused before touching anything.
	if _, _, err := eng.HarvestAll(context.Background(), harvest); !errors.Is(err, engine.ErrDegraded) {
		t.Fatalf("second feed = %v, want ErrDegraded (latched)", err)
	}
	// Asks keep serving.
	if r := eng.Ask(context.Background(), "What is the weather like in January of 2004 in El Prat?"); r.Err != nil {
		t.Fatalf("ask while degraded: %v", r.Err)
	}
	st := eng.Stats()
	if st.State != "degraded" || st.DegradedReason == "" {
		t.Errorf("stats state = %q (reason %q), want degraded with a reason", st.State, st.DegradedReason)
	}
	if st.WALErrors == 0 {
		t.Error("WALErrors should count the refused append")
	}

	// Operator intervention: disk is healthy again, feeds resume and the
	// re-feed converges (dedup skips nothing here — the failed batch
	// never committed).
	if !eng.ClearDegraded() {
		t.Fatal("ClearDegraded should report it was degraded")
	}
	items, total, err := eng.HarvestAll(context.Background(), harvest)
	if err != nil {
		t.Fatalf("feed after recovery: %v", err)
	}
	if total.Loaded == 0 {
		t.Errorf("recovered feed loaded nothing: %+v", items)
	}
	if st := eng.Stats(); st.State != "ready" {
		t.Errorf("state after ClearDegraded = %q, want ready", st.State)
	}
}

// TestSnapshotRetryRidesOutTransientFault: a snapshot publish that fails
// once succeeds on the engine's backoff retry; a persistently failing
// disk still surfaces the error.
func TestSnapshotRetryRidesOutTransientFault(t *testing.T) {
	defer engine.SetSnapshotRetryForTest(3, time.Millisecond)()
	ffs := store.NewFaultFS(store.OS())
	p, _, err := core.OpenPipelineFS(core.DefaultConfig(), t.TempDir(), ffs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Store().Close() })
	eng, err := p.Engine()
	if err != nil {
		t.Fatal(err)
	}

	// One refused rename: attempt 1 fails, attempt 2 publishes.
	ffs.Arm(store.Fault{Op: store.OpRename, Nth: 1})
	info, err := eng.SnapshotTo()
	if err != nil {
		t.Fatalf("snapshot with one transient fault: %v", err)
	}
	if info.Path == "" {
		t.Fatal("no snapshot path")
	}
	if ffs.Fired() != 1 {
		t.Errorf("fired = %d, want 1", ffs.Fired())
	}
	ffs.Disarm()

	// Every rename refused: the retry budget runs out loudly.
	ffs.Arm(
		store.Fault{Op: store.OpRename, Nth: 1},
		store.Fault{Op: store.OpRename, Nth: 2},
		store.Fault{Op: store.OpRename, Nth: 3},
	)
	if _, err := eng.SnapshotTo(); err == nil {
		t.Fatal("snapshot on a dead disk should fail after retries")
	} else if !errors.Is(err, store.ErrInjected) {
		t.Errorf("err = %v, should wrap the injected fault", err)
	}
}
