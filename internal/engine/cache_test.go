package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"dwqa/internal/qa"
)

func TestNormalizeQuestion(t *testing.T) {
	cases := []struct{ in, want string }{
		{"What is  the \t weather?", "What is the weather"},
		{"What is the weather", "What is the weather"},
		{"  padded   question ?  ", "padded question"},
		{"Really?!", "Really"},
		// Case is preserved: the analysis pipeline is case-sensitive.
		{"Weather in El Prat?", "Weather in El Prat"},
		{"", ""},
	}
	for _, c := range cases {
		if got := NormalizeQuestion(c.in); got != c.want {
			t.Errorf("NormalizeQuestion(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func res(i int) cachedAnswer {
	return cachedAnswer{qa: &qa.Result{Candidates: []qa.Answer{{Score: float64(i)}}}}
}

func TestAnswerCacheLRU(t *testing.T) {
	c := newAnswerCache(2)
	c.put("a", res(1), 0, nil)
	c.put("b", res(2), 0, nil)
	if _, ok, _ := c.get("a"); !ok {
		t.Fatal("a should be cached")
	}
	// "b" is now least recently used; inserting "c" evicts it.
	c.put("c", res(3), 0, nil)
	if _, ok, _ := c.get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok, _ := c.get("a"); !ok {
		t.Fatal("a should survive (recently used)")
	}
	if _, ok, _ := c.get("c"); !ok {
		t.Fatal("c should be cached")
	}
	if n := c.len(); n != 2 {
		t.Fatalf("len = %d, want 2", n)
	}
	hits, misses, _ := c.counters()
	if hits != 3 || misses != 1 {
		t.Errorf("counters = (%d hits, %d misses), want (3, 1)", hits, misses)
	}
}

func TestAnswerCachePutExistingMovesToFront(t *testing.T) {
	c := newAnswerCache(2)
	c.put("a", res(1), 0, nil)
	c.put("b", res(2), 0, nil)
	c.put("a", res(10), 0, nil) // refresh value and recency
	c.put("c", res(3), 0, nil)  // evicts b, not a
	if got, ok, _ := c.get("a"); !ok || got.qa.Candidates[0].Score != 10 {
		t.Fatalf("a = %+v (ok=%v), want refreshed entry", got, ok)
	}
	if _, ok, _ := c.get("b"); ok {
		t.Fatal("b should have been evicted")
	}
}

func TestAnswerCacheFlush(t *testing.T) {
	c := newAnswerCache(8)
	for i := 0; i < 5; i++ {
		c.put(fmt.Sprintf("q%d", i), res(i), 0, nil)
	}
	c.flush()
	if n := c.len(); n != 0 {
		t.Fatalf("len after flush = %d, want 0", n)
	}
	if _, ok, _ := c.get("q0"); ok {
		t.Fatal("entries must not survive a flush")
	}
}

// TestAnswerCacheStalePutDropped pins the feed-invalidation race fix: a
// result computed before a flush (an older epoch) must not be inserted
// after it.
func TestAnswerCacheStalePutDropped(t *testing.T) {
	c := newAnswerCache(8)
	_, _, epoch := c.get("q")      // miss; observe the pre-feed epoch
	c.flush()                      // a warehouse feed commits meanwhile
	c.put("q", res(1), epoch, nil) // late insert of the pre-feed answer
	if _, ok, _ := c.get("q"); ok {
		t.Fatal("stale pre-flush result must not enter the cache")
	}
	// A put at the current epoch works again.
	_, _, epoch = c.get("q")
	c.put("q", res(2), epoch, nil)
	if _, ok, _ := c.get("q"); !ok {
		t.Fatal("current-epoch put should be stored")
	}
}

// TestCacheFlushRaceNeverServesStaleAnswer drives the full engine ask
// path (cache get → compute → epoch-checked put) against concurrent
// feed-flushes under the race detector. The invariant is the epoch
// guard's reason to exist: once a flush for warehouse state S has
// completed, no Ask may ever serve an answer computed against state
// older than S — a stale answer computed before the feed must not be
// resurrected by a late cache insert after it.
func TestCacheFlushRaceNeverServesStaleAnswer(t *testing.T) {
	// A bare engine: the answer function reads a counter standing in for
	// the warehouse state, so staleness is observable in the answer.
	var state atomic.Int64
	e := &Engine{
		cache:      newAnswerCache(64),
		workers:    4,
		gate:       newGate(-1, 0, nil, nil),
		askTimeout: -1,
		met:        newEngineMetrics(),
	}
	e.answerFn = func(string) (*qa.Result, qa.Timings, error) {
		return &qa.Result{Candidates: []qa.Answer{{Score: float64(state.Load())}}}, qa.Timings{}, nil
	}

	// lastFlushed is the newest state any completed flush covered:
	// ordered state bump → flush → publish, exactly HarvestAll's commit
	// → InvalidateCache sequence.
	var lastFlushed atomic.Int64
	const feeds = 200
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < feeds; i++ {
			v := state.Add(1)
			e.InvalidateCache()
			lastFlushed.Store(v)
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			questions := []string{"alpha?", "beta?", "gamma?", "delta?"}
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				floor := lastFlushed.Load()
				r := e.Ask(context.Background(), questions[i%len(questions)])
				if r.Err != nil {
					t.Errorf("ask: %v", r.Err)
					return
				}
				if got := int64(r.Result.Candidates[0].Score); got < floor {
					t.Errorf("served state %d after a flush for state %d — pre-feed answer resurrected", got, floor)
					return
				}
			}
		}(w)
	}
	<-done
	wg.Wait()

	// Quiescent check: the final flush has propagated, a fresh ask must
	// see the final state and the cache must serve it consistently.
	r := e.Ask(context.Background(), "omega?")
	if got := int64(r.Result.Candidates[0].Score); got != feeds {
		t.Errorf("post-storm answer = state %d, want %d", got, feeds)
	}
	if r2 := e.Ask(context.Background(), "omega?"); !r2.Cached || int64(r2.Result.Candidates[0].Score) != feeds {
		t.Errorf("cached post-storm answer = (%v, cached=%v), want state %d from cache",
			r2.Result.Candidates[0].Score, r2.Cached, feeds)
	}
}

func TestAnswerCacheDisabled(t *testing.T) {
	c := newAnswerCache(-1)
	c.put("a", res(1), 0, nil)
	if _, ok, _ := c.get("a"); ok {
		t.Fatal("disabled cache must never hit")
	}
	if n := c.len(); n != 0 {
		t.Fatalf("len = %d, want 0", n)
	}
	// A disabled cache reports no traffic at all — a get is not a "miss"
	// when there is nothing to hit, so /healthz can distinguish "cache
	// off" from "cache cold" instead of showing a perpetual 0% hit rate.
	if hits, misses, _ := c.counters(); hits != 0 || misses != 0 {
		t.Fatalf("disabled cache counted traffic: %d hits, %d misses", hits, misses)
	}
	if c.enabled() {
		t.Fatal("cap <= 0 must report disabled")
	}
}
