package core_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"dwqa/internal/core"
	"dwqa/internal/engine"
	"dwqa/internal/ir"
	"dwqa/internal/nlp"
	"dwqa/internal/seed"
	"dwqa/internal/store"
)

// These tests serve cold factoids from a *restored* pipeline — the way
// `dwqa serve` runs on a seeded data directory — and pin that answering
// retains nothing per question: no decoded documents, no per-sentence
// memo, no intern-pool entries. The answer cache is the only structure
// traffic may fill, so it is disabled here.

// restoredEngine seeds a scaled-corpus directory of at least passages
// passages, boots a pipeline from its snapshot and returns the engine
// (answer cache off) with the number of corpus pages seeded.
func restoredEngine(t *testing.T, passages int) (*engine.Engine, int) {
	t.Helper()
	p, sum := restoredPipeline(t, seed.Config{Passages: passages})
	eng, err := p.Engine()
	if err != nil {
		t.Fatal(err)
	}
	return eng, sum.PagesSeen
}

// restoredPipeline seeds a scaled-corpus directory (corpus seed 42) as
// sc asks and boots a pipeline from its snapshot, answer cache off.
func restoredPipeline(t *testing.T, sc seed.Config) (*core.Pipeline, *seed.Summary) {
	t.Helper()
	dir := t.TempDir()
	sc.DataDir, sc.Seed = dir, 42
	sum, err := seed.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig() // as `dwqa serve -seed 0` boots the seeder's directory
	cfg.Seed = 0
	cfg.Engine.CacheSize = -1
	p, info, err := core.OpenPipelineFS(cfg, dir, store.OS())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Store().Close() })
	if !info.Recovered {
		t.Fatal("pipeline did not restore from the seeded snapshot")
	}
	return p, sum
}

// coldFactoids returns n distinct day-level temperature questions over
// the first pages of the scaled corpus, in a seeded random order — the
// question shape of the factoid_cold benchmark workload.
func coldFactoids(pages, n int) []string {
	const days = 28
	out := make([]string, 0, n)
	for _, m := range rand.New(rand.NewSource(1)).Perm(pages * days)[:n] {
		g := core.ScaledPage(m/days, 42).Gold[0]
		out = append(out, fmt.Sprintf("What is the temperature in %s on %s %d, %d?",
			g.City, time.Month(g.Month), m%days+1, g.Year))
	}
	return out
}

// askAll answers each question on its own, as a serving client would,
// and fails on any error.
func askAll(t *testing.T, eng *engine.Engine, questions []string) {
	t.Helper()
	for _, q := range questions {
		if r := eng.Ask(context.Background(), q); r.Err != nil {
			t.Fatalf("ask %q: %v", q, r.Err)
		}
	}
}

// liveHeap returns the bytes reachable after a full collection.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestRestoredFactoidsLeaveInternPoolUnchanged closes the document side
// of the intern-pool rule on a restored server: answering reads document
// heads (qa's document-location fallback) through the non-inserting
// query analysis, so the pool is the same size after the questions as
// before them.
func TestRestoredFactoidsLeaveInternPoolUnchanged(t *testing.T) {
	eng, pages := restoredEngine(t, 2_000)
	questions := coldFactoids(pages, 60)
	before := nlp.InternedCount()
	askAll(t, eng, questions)
	if after := nlp.InternedCount(); after != before {
		t.Fatalf("intern pool grew from %d to %d entries over %d restored factoids", before, after, len(questions))
	}
}

// TestRestoredFactoidResidencyPlateaus is the plateau acceptance of
// memory set by configuration, not traffic: after a warm-up of distinct
// cold factoids, five times as many more must not grow the live heap
// beyond a small fixed slack. The corpus is large enough that the second
// phase keeps reaching documents the first never read, so any structure
// that kept decoded documents or per-sentence derivations would grow by
// tens of megabytes here.
func TestRestoredFactoidResidencyPlateaus(t *testing.T) {
	const slack = 4 << 20
	eng, pages := restoredEngine(t, 20_000)
	questions := coldFactoids(pages, 1_800)
	askAll(t, eng, questions[:300])
	warm := liveHeap()
	askAll(t, eng, questions[300:])
	after := liveHeap()
	t.Logf("live heap %.1f MB after 300 factoids, %.1f MB after 1800", float64(warm)/(1<<20), float64(after)/(1<<20))
	if after > warm+slack {
		t.Fatalf("live heap grew from %.1f MB to %.1f MB over 1500 more cold factoids (slack %d MB)",
			float64(warm)/(1<<20), float64(after)/(1<<20), slack>>20)
	}
}

// TestBuiltIndexHoldsWhatRestoredHolds pins that indexing keeps documents
// in the form a restore does: the live heap of a corpus built by AddBatch
// is within 1 MB of the same corpus imported from its own Export, so
// ingest retains no analysed tokens beyond the wire blocks a snapshot
// carries.
func TestBuiltIndexHoldsWhatRestoredHolds(t *testing.T) {
	const slack = 1 << 20
	base := liveHeap()
	sc, err := core.BuildScaledCorpus(20_000, 42)
	if err != nil {
		t.Fatal(err)
	}
	built := liveHeap() - base
	// The snapshot shares the built index's token blocks, so the built
	// index and the snapshot are dropped before the restored index is
	// measured: what is live then is what the restore holds.
	snap := sc.Index.Export()
	sc = nil
	restored := ir.NewIndex()
	if err := restored.Import(snap); err != nil {
		t.Fatal(err)
	}
	snap = nil
	imported := liveHeap() - base
	runtime.KeepAlive(restored)
	t.Logf("live heap of the index: %.1f MB built, %.1f MB restored", float64(built)/(1<<20), float64(imported)/(1<<20))
	if built > imported+slack || imported > built+slack {
		t.Fatalf("built index holds %.1f MB, restored %.1f MB: more than %d MB apart",
			float64(built)/(1<<20), float64(imported)/(1<<20), slack>>20)
	}
}
