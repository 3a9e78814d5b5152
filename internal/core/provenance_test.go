package core

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"dwqa/internal/dw"
)

// TestProvenanceUnderConcurrentFeeds runs Step 5 feeds whose rows bring
// new sources while asks and state exports run alongside them, on one
// shard and on two (run it with -race). Every export taken mid-feed must
// hold a well-formed provenance column, and once the feeds are done each
// shard's dictionary and code column must equal those of the same feeds
// run alone: codes are assigned in commit order, never in an order a
// concurrent reader or map iteration could change.
func TestProvenanceUnderConcurrentFeeds(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { testProvenanceUnderConcurrentFeeds(t, shards) })
	}
}

// weatherProvenance returns each shard's exported Weather provenance.
func weatherProvenance(t *testing.T, p *Pipeline) []dw.FactSnapshot {
	t.Helper()
	var out []dw.FactSnapshot
	for i, st := range p.ExportShardStates() {
		for _, fs := range st.DW.Facts {
			if fs.Fact != "Weather" {
				continue
			}
			if err := checkProvenanceColumn(fs); err != nil {
				t.Errorf("shard %d: %v", i, err)
			}
			out = append(out, dw.FactSnapshot{Fact: fs.Fact, Rows: fs.Rows, Sources: fs.Sources, SourceCodes: fs.SourceCodes})
		}
	}
	return out
}

// checkProvenanceColumn checks one exported fact's provenance column:
// one code per row once any source exists, every code naming a
// dictionary entry, every entry distinct.
func checkProvenanceColumn(fs dw.FactSnapshot) error {
	if len(fs.Sources) > 0 && len(fs.SourceCodes) != fs.Rows || len(fs.Sources) == 0 && len(fs.SourceCodes) != 0 {
		return fmt.Errorf("%d codes for %d rows and %d sources", len(fs.SourceCodes), fs.Rows, len(fs.Sources))
	}
	seen := map[string]bool{}
	for _, s := range fs.Sources {
		if seen[s] {
			return fmt.Errorf("source %q repeated", s)
		}
		seen[s] = true
	}
	for r, c := range fs.SourceCodes {
		if c < -1 || int(c) >= len(fs.Sources) {
			return fmt.Errorf("row %d code %d outside %d sources", r, c, len(fs.Sources))
		}
	}
	return nil
}

func testProvenanceUnderConcurrentFeeds(t *testing.T, shards int) {
	cfg := recoveryConfig()
	build := func() *Pipeline {
		p, err := NewShardedPipeline(cfg, shards)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Integrate(); err != nil {
			t.Fatal(err)
		}
		return p
	}
	seq := build()
	feeds := randomSlices(seq.WeatherQuestions(), 5)
	for _, f := range feeds {
		if _, err := seq.Step5FeedWarehouse(f); err != nil {
			t.Fatal(err)
		}
	}
	want := weatherProvenance(t, seq)

	p := build()
	questions := p.WeatherQuestions()
	var done atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	wg.Add(2)
	go func() { // asks: factoid and analytic
		defer wg.Done()
		for i := 0; !done.Load(); i++ {
			if _, err := p.Ask(questions[i%len(questions)]); err != nil {
				errs <- fmt.Errorf("ask: %w", err)
				return
			}
			if _, err := p.AskOLAP(AnalyticQuestions()[i%len(AnalyticQuestions())]); err != nil {
				errs <- fmt.Errorf("askOLAP: %w", err)
				return
			}
		}
	}()
	go func() { // exports, each checked as it is taken
		defer wg.Done()
		for !done.Load() {
			for i, st := range p.ExportShardStates() {
				for _, fs := range st.DW.Facts {
					if err := checkProvenanceColumn(fs); err != nil {
						errs <- fmt.Errorf("mid-feed export, shard %d fact %s: %w", i, fs.Fact, err)
						return
					}
				}
			}
		}
	}()
	for _, f := range feeds {
		if _, err := p.Step5FeedWarehouse(f); err != nil {
			t.Error(err)
			break
		}
	}
	done.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	got := weatherProvenance(t, p)
	if len(got) != shards || got[0].Rows == 0 {
		t.Fatalf("fed %d shards of Weather rows (%d rows on shard 0), want %d shards with rows", len(got), got[0].Rows, shards)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("provenance columns after concurrent feeds differ from the sequential run's")
	}
}
