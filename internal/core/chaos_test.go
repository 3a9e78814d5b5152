package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dwqa/internal/engine"
	"dwqa/internal/store"
)

// The chaos property test: a durable pipeline serving a concurrent
// ask/feed/snapshot workload while the filesystem underneath it fails on
// a random (but seed-deterministic) schedule. The properties under test:
//
//  1. No panic escapes the serving layer.
//  2. Every response is either byte-identical to a sequential oracle or
//     one of the explicit contracted outcomes — shed, deadline expiry,
//     or degraded read-only mode. Never silent corruption.
//  3. Every WAL append failure surfaces as degraded mode; none are
//     swallowed.
//  4. Whatever the storm leaves on disk, a clean restart recovers, still
//     serves the oracle, and a re-feed converges to exactly the state a
//     clean sequential run would have produced.
//
// Run under -race: the schedule's delay faults widen the interleaving
// space the detector explores.

// chaosConfig is recoveryConfig plus serving limits, so the storm
// exercises the admission gate and deadlines, not just the fault FS.
func chaosConfig() Config {
	cfg := recoveryConfig()
	cfg.Engine = engine.Config{
		Workers:     4,
		MaxInflight: 4,
		MaxQueue:    2,
		// Generous deadlines: expiry is an allowed outcome, not a goal —
		// the deadline unit tests live in the engine package.
		AskTimeout:     10 * time.Second,
		HarvestTimeout: 60 * time.Second,
	}
	return cfg
}

// stableChaosQuestions returns the feed-invariant workload the oracle is
// built over: factoid answers come from the passage index (Step 5 feeds
// touch only the warehouse) and the analytic ones aggregate the
// LastMinuteSales fact, which the weather harvest never loads into.
func stableChaosQuestions(p *Pipeline) []string {
	qs := append([]string{}, p.WeatherQuestions()...)
	return append(qs,
		"Total last-minute revenue per destination city in January",
		"How many tickets were sold to Barcelona in January of 2004?",
		"Number of flights per departure airport",
	)
}

// renderAskResult flattens an engine answer — factoid trace or analytic
// plan+result — into the byte string compared against the oracle.
func renderAskResult(r engine.AskResult) string {
	if r.OLAP != nil {
		return r.OLAP.PlanString() + "\n" + r.OLAP.Result.Format()
	}
	return r.Result.Trace().Format()
}

func TestChaosServingUnderFaultInjection(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos storm: skipped in -short mode")
	}
	cfg := chaosConfig()

	// The convergence oracle: a clean sequential run of the full
	// pipeline. Every trial's recovered, re-fed state must match it
	// byte for byte.
	ref, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.RunAll(); err != nil {
		t.Fatal(err)
	}
	wantFingerprint := answerFingerprint(t, ref)

	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runChaosTrial(t, cfg, seed, wantFingerprint)
		})
	}
}

func runChaosTrial(t *testing.T, cfg Config, seed int64, wantFingerprint string) {
	dir := t.TempDir()
	ffs := store.NewFaultFS(store.OS()) // disarmed: boot is clean
	p, info, err := OpenPipelineFS(cfg, dir, ffs)
	if err != nil {
		t.Fatal(err)
	}
	if info.Recovered {
		t.Fatal("fresh directory reported a recovery")
	}
	eng, err := p.Engine()
	if err != nil {
		t.Fatal(err)
	}

	// Pre-storm sequential oracle over the feed-invariant questions.
	stable := stableChaosQuestions(p)
	oracle := make(map[string]string, len(stable))
	for _, q := range stable {
		r := eng.Ask(context.Background(), q)
		if r.Err != nil {
			t.Fatalf("pre-storm ask %q: %v", q, r.Err)
		}
		oracle[q] = renderAskResult(r)
	}

	ffs.Arm(store.RandomSchedule(seed, 60, 0.15)...)

	var (
		wg            sync.WaitGroup
		oracleMatches atomic.Int64
		shedOrExpired atomic.Int64
		degradedSeen  atomic.Int64
		feedsOK       atomic.Int64
	)

	// Askers: every answer must be byte-identical to the oracle or an
	// explicit shed/expiry — nothing in between.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				q := stable[(w*13+i)%len(stable)]
				r := eng.Ask(context.Background(), q)
				switch {
				case r.Err == nil:
					if got := renderAskResult(r); got != oracle[q] {
						t.Errorf("seed %d: ask %q diverged from oracle:\n got: %q\nwant: %q",
							seed, q, got, oracle[q])
						return
					}
					oracleMatches.Add(1)
				case errors.Is(r.Err, engine.ErrShed),
					errors.Is(r.Err, context.DeadlineExceeded):
					shedOrExpired.Add(1)
				default:
					t.Errorf("seed %d: ask %q: uncontracted error: %v", seed, q, r.Err)
					return
				}
			}
		}(w)
	}

	// Feeders: WAL faults latch degraded read-only mode; the feeder
	// doubles as the operator who clears the latch and retries.
	weather := p.WeatherQuestions()
	for f := 0; f < 2; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				lo := ((f*6 + i) * 2) % len(weather)
				hi := lo + 2
				if hi > len(weather) {
					hi = len(weather)
				}
				_, _, err := eng.HarvestAll(context.Background(), weather[lo:hi])
				switch {
				case err == nil:
					feedsOK.Add(1)
				case errors.Is(err, engine.ErrDegraded):
					degradedSeen.Add(1)
					eng.ClearDegraded()
				case errors.Is(err, engine.ErrShed),
					errors.Is(err, context.DeadlineExceeded):
					// retryable, nothing latched
				default:
					t.Errorf("seed %d: feed: uncontracted error: %v", seed, err)
					return
				}
			}
		}(f)
	}

	// Snapshotter: publishes ride the bounded retry/backoff loop. A
	// failed publish is a contracted outcome; a corrupted one is not —
	// the restart check below is what holds that line.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			_, _ = eng.SnapshotTo()
			time.Sleep(5 * time.Millisecond)
		}
	}()

	wg.Wait()
	walErrors := p.Store().WALErrors()
	ffs.Disarm()
	t.Logf("seed %d: faults fired=%d asks ok=%d shed/expired=%d feeds ok=%d degraded=%d wal errors=%d",
		seed, ffs.Fired(), oracleMatches.Load(), shedOrExpired.Load(),
		feedsOK.Load(), degradedSeen.Load(), walErrors)

	// Property 3: a WAL append failure must have surfaced as degraded
	// mode to some feeder, never been swallowed.
	if walErrors > 0 && degradedSeen.Load() == 0 {
		t.Errorf("seed %d: %d WAL errors but degraded mode was never observed", seed, walErrors)
	}
	if oracleMatches.Load() == 0 {
		t.Errorf("seed %d: no ask succeeded during the storm; the trial is vacuous", seed)
	}

	// Disk healthy again: the engine must still serve the exact
	// pre-storm answers, whatever mode the storm left it in.
	eng.ClearDegraded()
	for _, q := range stable {
		r := eng.Ask(context.Background(), q)
		if r.Err != nil {
			t.Fatalf("seed %d: post-storm ask %q: %v", seed, q, r.Err)
		}
		if got := renderAskResult(r); got != oracle[q] {
			t.Fatalf("seed %d: post-storm ask %q diverged from oracle", seed, q)
		}
	}

	// Property 4 — crash and restart. The WAL handle may be poisoned by
	// a failed rollback, so Close may error; the bytes on disk are what
	// recovery is judged on.
	_ = p.Store().Close()

	p2, info2, err := OpenPipeline(cfg, dir)
	if err != nil {
		t.Fatalf("seed %d: reopening after storm: %v", seed, err)
	}
	defer closePipeline(t, p2)
	if info2.WALRepaired > 0 {
		t.Logf("seed %d: recovery dropped %d torn WAL bytes", seed, info2.WALRepaired)
	}
	eng2, err := p2.Engine()
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range stable {
		r := eng2.Ask(context.Background(), q)
		if r.Err != nil {
			t.Fatalf("seed %d: recovered ask %q: %v", seed, q, r.Err)
		}
		if got := renderAskResult(r); got != oracle[q] {
			t.Fatalf("seed %d: recovered ask %q diverged from oracle:\n got: %q\nwant: %q",
				seed, q, got, oracle[q])
		}
	}

	// Re-feed to convergence: the first full feed loads whatever the
	// storm lost; a second must change nothing (the dedup state the
	// feeds' idempotence rests on survived the crash).
	if _, err := p2.Step5FeedWarehouse(p2.WeatherQuestions()); err != nil {
		t.Fatalf("seed %d: re-feed after recovery: %v", seed, err)
	}
	members1, rows1 := p2.Durable().StateCounts()
	if _, err := p2.Step5FeedWarehouse(p2.WeatherQuestions()); err != nil {
		t.Fatalf("seed %d: second re-feed: %v", seed, err)
	}
	if members2, rows2 := p2.Durable().StateCounts(); members2 != members1 || rows2 != rows1 {
		t.Errorf("seed %d: second feed changed state: members %d→%d rows %d→%d",
			seed, members1, members2, rows1, rows2)
	}

	if got := answerFingerprint(t, p2); got != wantFingerprint {
		t.Errorf("seed %d: recovered+re-fed state diverged from the clean sequential run", seed)
	}
}
