package engine_test

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"dwqa/internal/core"
	"dwqa/internal/engine"
)

// newEquivalencePair builds two pipelines over the identical scenario
// (same seed, corpus, warehouse) whose engines differ in exactly one
// knob: selective tag-based invalidation (the default) versus the
// flush-everything-on-feed oracle (SetFullFlushForTest). Driving both
// through the same feed/ask sequence must produce byte-identical
// answers — the oracle recomputes everything post-feed, so any
// divergence means selective invalidation under-evicted and served a
// stale answer.
func newEquivalencePair(t *testing.T) (sel, oracle *engine.Engine, pool []string) {
	t.Helper()
	// The ask pool mixes every cache-entry shape: factoid (untagged —
	// must survive feeds), member-filtered analytic (m: tags), grouped
	// unfiltered analytic (f: tag), and a dynamically-enumerated date
	// filter with no year (d: tag — its value set tracks the Month
	// level's member population).
	pool = []string{
		"What is the weather like in January of 2004 in El Prat?", // factoid
		"What is the average temperature in Barcelona by month?",  // m: filter
		"count of weather observations by city",                   // f: unfiltered
		"How many tickets were sold to Barcelona in January of 2004?",
		"Total last-minute revenue per destination city in January", // d: dynamic month
	}
	return newFlushConfiguredEngine(t, false), newFlushConfiguredEngine(t, true), pool
}

// newFlushConfiguredEngine builds a full scenario pipeline (Steps 1-4)
// and returns its serving engine with the feed-invalidation strategy
// pinned: selective tag-based eviction (false) or the legacy
// flush-everything oracle (true). Shared by the equivalence test and
// the hit-rate benchmark.
func newFlushConfiguredEngine(tb testing.TB, fullFlush bool) *engine.Engine {
	tb.Helper()
	p, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	for _, step := range []func() error{
		p.Step1DeriveOntology, p.Step2FeedOntology,
		p.Step3MergeUpperOntology, p.Step4TuneQA,
	} {
		if err := step(); err != nil {
			tb.Fatal(err)
		}
	}
	eng, err := p.Engine()
	if err != nil {
		tb.Fatal(err)
	}
	eng.SetFullFlushForTest(fullFlush)
	return eng
}

// TestSelectiveInvalidationMatchesFullFlushOracle is the PR-7
// equivalence property test: random feed/ask interleavings must be
// answer-equivalent between selective invalidation and the full-flush
// oracle, while the selective cache demonstrably keeps untouched
// entries alive across feeds (the whole point of tagging).
func TestSelectiveInvalidationMatchesFullFlushOracle(t *testing.T) {
	sel, oracle, pool := newEquivalencePair(t)
	ctx := context.Background()
	harvest := sel.DefaultHarvest() // same scenario on both engines

	rng := rand.New(rand.NewSource(7))
	factoidSurvived := false
	analyticEvicted := false
	for round := 0; round < 8; round++ {
		// One random harvest slice, fed to both engines.
		i := rng.Intn(len(harvest))
		j := i + 1 + rng.Intn(3)
		if j > len(harvest) {
			j = len(harvest)
		}
		batch := harvest[i:j]
		selItems, selRep, selErr := sel.HarvestAll(ctx, batch)
		_, oraRep, oraErr := oracle.HarvestAll(ctx, batch)
		if selErr != nil || oraErr != nil {
			t.Fatalf("round %d: feed errs %v / %v", round, selErr, oraErr)
		}
		if selRep.Loaded != oraRep.Loaded || selRep.Skipped != oraRep.Skipped {
			t.Fatalf("round %d: feeds diverged: %+v vs %+v", round, selRep, oraRep)
		}
		_ = selItems

		// Ask the full pool in random order plus random repeats,
		// byte-compared slot by slot against the oracle.
		sample := append([]string(nil), pool...)
		rng.Shuffle(len(sample), func(a, b int) { sample[a], sample[b] = sample[b], sample[a] })
		for k := 0; k < rng.Intn(3); k++ {
			sample = append(sample, pool[rng.Intn(len(pool))])
		}
		selOut := sel.AskAll(ctx, sample)
		oraOut := oracle.AskAll(ctx, sample)
		for s := range sample {
			got, want := renderAsk(selOut[s]), renderAsk(oraOut[s])
			if got != want {
				t.Fatalf("round %d slot %d (%q):\nselective = %q\noracle    = %q",
					round, s, sample[s], got, want)
			}
			if selOut[s].Cached && selOut[s].Result != nil && !oraOut[s].Cached && round > 0 {
				factoidSurvived = true // untouched factoid entry outlived a feed
			}
			if round > 0 && selRep.Loaded > 0 && !selOut[s].Cached && selOut[s].OLAP != nil &&
				selOut[s].Question == "count of weather observations by city" {
				analyticEvicted = true // whole-fact entry died with the feed
			}
		}
	}

	// The selective cache must have strictly out-hit the flushing oracle
	// (same traffic, fewer evictions), and both invariants must have
	// actually been exercised.
	selStats, oraStats := sel.Stats(), oracle.Stats()
	if selStats.CacheHits < oraStats.CacheHits {
		t.Errorf("selective cache hits %d < oracle %d on identical traffic",
			selStats.CacheHits, oraStats.CacheHits)
	}
	if !factoidSurvived {
		t.Error("no factoid entry ever survived a feed; selectivity was not exercised")
	}
	if !analyticEvicted {
		t.Error("the whole-fact analytic entry never got evicted by a row-loading feed")
	}

	// Concurrency storm under the race detector: feeds (all-duplicate
	// after the rounds above, so warehouse state is already final) race
	// asks on the selective engine. Then, quiesced, every pool answer
	// must still match the oracle's post-feed recomputation.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 0; n < 10; n++ {
			if _, _, err := sel.HarvestAll(ctx, nil); err != nil { // nil = full default workload
				t.Errorf("storm feed: %v", err)
				return
			}
		}
	}()
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(100 + w)))
			for n := 0; n < 20; n++ {
				q := pool[r.Intn(len(pool))]
				if res := sel.Ask(ctx, q); res.Err != nil {
					t.Errorf("storm ask %q: %v", q, res.Err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if _, _, err := oracle.HarvestAll(ctx, nil); err != nil {
		t.Fatal(err)
	}
	selOut := sel.AskAll(ctx, pool)
	oraOut := oracle.AskAll(ctx, pool)
	for s := range pool {
		if got, want := renderAsk(selOut[s]), renderAsk(oraOut[s]); got != want {
			t.Errorf("post-storm slot %d (%q):\nselective = %q\noracle    = %q", s, pool[s], got, want)
		}
	}
}
