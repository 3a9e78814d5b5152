package core

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dwqa/internal/engine"
	"dwqa/internal/shard"
	"dwqa/internal/store"
)

// recoveryConfig keeps the crash-recovery suite fast: one covered month
// still exercises every moving part (harvest, members, fact rows,
// provenance, analytic plans).
func recoveryConfig() Config {
	cfg := DefaultConfig()
	cfg.Months = []int{1}
	return cfg
}

// answerFingerprint renders every factoid trace and analytic answer of
// the scenario workload into one string — the byte-identity oracle of the
// recovery tests.
func answerFingerprint(t *testing.T, p *Pipeline) string {
	t.Helper()
	var b strings.Builder
	for _, q := range p.WeatherQuestions() {
		res, err := p.Ask(q)
		if err != nil {
			t.Fatalf("ask %q: %v", q, err)
		}
		b.WriteString(res.Trace().Format())
		b.WriteByte('\n')
	}
	for _, q := range AnalyticQuestions() {
		ans, err := p.AskOLAP(q)
		if err != nil {
			t.Fatalf("askOLAP %q: %v", q, err)
		}
		b.WriteString(ans.PlanString())
		b.WriteByte('\n')
		b.WriteString(ans.Result.Format())
		b.WriteByte('\n')
	}
	return b.String()
}

// feedPerQuestion runs Step 5 one question at a time, producing one WAL
// record pair per feed — the many-batches workload the crash trials cut
// at random offsets.
func feedPerQuestion(t *testing.T, p *Pipeline) {
	t.Helper()
	for _, q := range p.WeatherQuestions() {
		if _, err := p.Step5FeedWarehouse([]string{q}); err != nil {
			t.Fatalf("feeding %q: %v", q, err)
		}
	}
}

// closePipeline releases the store of a durable pipeline.
func closePipeline(t *testing.T, p *Pipeline) {
	t.Helper()
	if st := p.Store(); st != nil {
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// copyDataDir clones a data directory (snapshots + WAL) for a trial.
func copyDataDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOpenPipelineRestart is the round-trip backbone: boot fresh, feed,
// restart, and the recovered pipeline must answer byte-identically
// without re-feeding anything.
func TestOpenPipelineRestart(t *testing.T) {
	cfg := recoveryConfig()
	dir := t.TempDir()

	p1, info1, err := OpenPipeline(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	if info1.Recovered {
		t.Fatal("fresh directory reported a recovery")
	}
	feedPerQuestion(t, p1)
	want := answerFingerprint(t, p1)
	wantMembers, wantRows := p1.Warehouse.Counts()
	wantDocs, wantPassages, wantTerms := p1.Index.DocCount(), p1.Index.PassageCount(), p1.Index.TermCount()
	if wantRows == 0 {
		t.Fatal("feed loaded nothing; the test would be vacuous")
	}
	closePipeline(t, p1)

	p2, info2, err := OpenPipeline(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer closePipeline(t, p2)
	if !info2.Recovered {
		t.Fatal("restart did not recover from the snapshot")
	}
	if info2.WALReplayed == 0 {
		t.Fatal("feed records were not replayed from the WAL")
	}
	gotMembers, gotRows := p2.Warehouse.Counts()
	if gotMembers != wantMembers || gotRows != wantRows {
		t.Fatalf("recovered warehouse %d members/%d rows, want %d/%d", gotMembers, gotRows, wantMembers, wantRows)
	}
	if d, ps, tm := p2.Index.DocCount(), p2.Index.PassageCount(), p2.Index.TermCount(); d != wantDocs || ps != wantPassages || tm != wantTerms {
		t.Fatalf("recovered index %d/%d/%d, want %d/%d/%d", d, ps, tm, wantDocs, wantPassages, wantTerms)
	}
	if got := answerFingerprint(t, p2); got != want {
		t.Fatal("recovered pipeline answers diverge from the uninterrupted run")
	}

	// Second restart: the state keeps round-tripping (snapshot written at
	// boot 1 + WAL replayed at boot 2 must equal what boot 3 sees).
	closePipeline(t, p2)
	p3, _, err := OpenPipeline(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer closePipeline(t, p3)
	if got := answerFingerprint(t, p3); got != want {
		t.Fatal("second restart diverges")
	}
}

// TestCrashRecoveryProperty is the acceptance property: kill the process
// at a random WAL byte offset mid-feed; recovery must come up cleanly on
// the surviving prefix, and completing the interrupted feed must yield
// factoid and analytic answers byte-identical to a run that was never
// interrupted.
func TestCrashRecoveryProperty(t *testing.T) {
	cfg := recoveryConfig()
	refDir := t.TempDir()

	ref, _, err := OpenPipeline(cfg, refDir)
	if err != nil {
		t.Fatal(err)
	}
	questions := ref.WeatherQuestions()
	feedPerQuestion(t, ref)
	want := answerFingerprint(t, ref)
	wantMembers, wantRows := ref.Warehouse.Counts()
	closePipeline(t, ref)

	walBytes, err := os.ReadFile(filepath.Join(refDir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if len(walBytes) == 0 {
		t.Fatal("feed produced no WAL records; the property would be vacuous")
	}

	rng := rand.New(rand.NewSource(42))
	cuts := []int{0, len(walBytes)} // boundary kills: before any record, after a clean feed
	for i := 0; i < 6; i++ {
		cuts = append(cuts, rng.Intn(len(walBytes)))
	}
	for _, cut := range cuts {
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "trial")
			copyDataDir(t, refDir, dir)
			if err := os.WriteFile(filepath.Join(dir, "wal.log"), walBytes[:cut], 0o644); err != nil {
				t.Fatal(err)
			}

			p, info, err := OpenPipeline(cfg, dir)
			if err != nil {
				t.Fatalf("recovery failed at cut %d: %v", cut, err)
			}
			defer closePipeline(t, p)
			if !info.Recovered {
				t.Fatal("trial did not recover from the snapshot")
			}
			// The surviving prefix never exceeds the uninterrupted state.
			members, rows := p.Warehouse.Counts()
			if members > wantMembers || rows > wantRows {
				t.Fatalf("recovered state overshoots: %d/%d members/rows vs %d/%d", members, rows, wantMembers, wantRows)
			}
			if cut == len(walBytes) {
				// A kill after the last ack loses nothing: answers must
				// already be byte-identical with no re-feed at all.
				if rows != wantRows {
					t.Fatalf("clean-WAL recovery lost rows: %d vs %d", rows, wantRows)
				}
				if got := answerFingerprint(t, p); got != want {
					t.Fatal("clean-WAL recovery diverges from the uninterrupted run")
				}
				return
			}
			// Complete the interrupted feed: the loader's restored dedup
			// state makes re-harvesting idempotent, so the result must
			// converge on the uninterrupted run exactly.
			if _, err := p.Step5FeedWarehouse(questions); err != nil {
				t.Fatal(err)
			}
			if members, rows := p.Warehouse.Counts(); members != wantMembers || rows != wantRows {
				t.Fatalf("after completing the feed: %d/%d members/rows, want %d/%d", members, rows, wantMembers, wantRows)
			}
			if got := answerFingerprint(t, p); got != want {
				t.Fatal("answers after recovery+refeed diverge from the uninterrupted run")
			}
		})
	}
}

// TestRefeedIdempotent is the WAL-replay-safety satellite at the system
// level: re-applying the same harvest (duplicate member names, identical
// fact rows) against a live or recovered warehouse changes nothing, on
// one shard and on two. Dedup asks the warehouse's own provenance, so it
// must hold whether the fed rows come back from a snapshot or — after a
// kill, with no snapshot taken — only through WAL replay; and a feed of
// sources the warehouse does not hold must still load.
func TestRefeedIdempotent(t *testing.T) {
	for _, shards := range []int{1, 2} {
		for _, ending := range []string{"snapshot", "kill"} {
			t.Run(fmt.Sprintf("shards=%d/%s", shards, ending), func(t *testing.T) {
				testRefeedIdempotent(t, shards, ending == "snapshot")
			})
		}
	}
}

func testRefeedIdempotent(t *testing.T, shards int, snapshot bool) {
	cfg := recoveryConfig()
	dir := t.TempDir()
	// feed runs Step 5 and returns the rows it loaded.
	feed := func(p *Pipeline, questions []string) int {
		t.Helper()
		if _, err := p.Step5FeedWarehouse(questions); err != nil {
			t.Fatal(err)
		}
		return p.LoadReport.Loaded
	}
	p, _, err := OpenShardedPipeline(cfg, dir, shards)
	if err != nil {
		t.Fatal(err)
	}
	questions := p.WeatherQuestions()
	first, later := questions[:len(questions)/2], questions[len(questions)/2:]
	if n := feed(p, first); n == 0 {
		t.Fatal("the first feed loaded nothing")
	}
	members1, rows1 := p.Cluster.Counts()
	want := shardedFingerprint(t, p)

	// Same batch, same loader: everything must dedup.
	if n := feed(p, first); n != 0 {
		t.Fatalf("live re-feed loaded %d rows, want 0", n)
	}
	if m, r := p.Cluster.Counts(); m != members1 || r != rows1 {
		t.Fatalf("re-feed changed the warehouse: %d/%d → %d/%d", members1, rows1, m, r)
	}
	if got := shardedFingerprint(t, p); got != want {
		t.Fatal("re-feed changed answers")
	}
	if snapshot {
		eng, err := p.Engine()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.SnapshotTo(); err != nil {
			t.Fatal(err)
		}
	}
	// Closing the stores without a final snapshot is what a kill leaves:
	// the feed survives in the WAL alone.
	if err := p.Durable().Close(); err != nil {
		t.Fatal(err)
	}

	p2, info, err := OpenShardedPipeline(cfg, dir, shards)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Durable().Close()
	if snapshot != (info.WALReplayed == 0) {
		t.Fatalf("reboot replayed %d WAL records after a snapshot=%v ending", info.WALReplayed, snapshot)
	}
	if m, r := p2.Cluster.Counts(); m != members1 || r != rows1 {
		t.Fatalf("reboot recovered %d/%d members/rows, want %d/%d", m, r, members1, rows1)
	}
	if n := feed(p2, first); n != 0 {
		t.Fatalf("post-recovery re-feed loaded %d rows, want 0", n)
	}
	if m, r := p2.Cluster.Counts(); m != members1 || r != rows1 {
		t.Fatalf("post-recovery re-feed changed the warehouse: %d/%d → %d/%d", members1, rows1, m, r)
	}
	if got := shardedFingerprint(t, p2); got != want {
		t.Fatal("post-recovery re-feed changed answers")
	}
	if n := feed(p2, later); n == 0 {
		t.Fatal("a feed of sources the warehouse does not hold loaded nothing")
	}
}

// TestEngineSnapshotTo checks the serving-side snapshot path: SnapshotTo
// publishes a snapshot equal to the live state and resets the WAL it
// covers, and the stats surface the durability fields.
func TestEngineSnapshotTo(t *testing.T) {
	cfg := recoveryConfig()
	dir := t.TempDir()
	p, _, err := OpenPipeline(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Step5FeedWarehouse(p.WeatherQuestions()); err != nil {
		t.Fatal(err)
	}
	eng, err := p.Engine()
	if err != nil {
		t.Fatal(err)
	}
	info, err := eng.SnapshotTo()
	if err != nil {
		t.Fatal(err)
	}
	if !info.WALReset {
		t.Fatal("snapshot covering all feeds did not reset the WAL")
	}
	st := eng.Stats()
	if !st.Durable || st.LastSnapshot == "" {
		t.Fatalf("stats missing durability fields: %+v", st)
	}
	if st.Members == 0 || st.FactRows == 0 {
		t.Fatalf("stats missing warehouse sizing: %+v", st)
	}
	want := answerFingerprint(t, p)
	wantMembers, wantRows := p.Warehouse.Counts()
	closePipeline(t, p)

	// The next boot restores from that snapshot with zero WAL replay.
	p2, info2, err := OpenPipeline(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer closePipeline(t, p2)
	if !info2.Recovered || info2.WALReplayed != 0 {
		t.Fatalf("expected pure-snapshot recovery, got %+v", info2)
	}
	if m, r := p2.Warehouse.Counts(); m != wantMembers || r != wantRows {
		t.Fatalf("recovered %d/%d members/rows, want %d/%d", m, r, wantMembers, wantRows)
	}
	if got := answerFingerprint(t, p2); got != want {
		t.Fatal("post-SnapshotTo recovery diverges")
	}
}

// TestOpenPipelineWALOnlyBoot covers the crash window before the first
// snapshot: a directory holding only a WAL must boot by rebuilding the
// deterministic baseline and replaying the log on top of it.
func TestOpenPipelineWALOnlyBoot(t *testing.T) {
	cfg := recoveryConfig()
	dir := t.TempDir()
	p, _, err := OpenPipeline(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Step5FeedWarehouse(p.WeatherQuestions()); err != nil {
		t.Fatal(err)
	}
	want := answerFingerprint(t, p)
	_, wantRows := p.Warehouse.Counts()
	closePipeline(t, p)

	// Delete every snapshot, keep the WAL.
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*"))
	if err != nil || len(snaps) == 0 {
		t.Fatalf("no snapshots to delete (err %v)", err)
	}
	for _, s := range snaps {
		if err := os.Remove(s); err != nil {
			t.Fatal(err)
		}
	}

	p2, info, err := OpenPipeline(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer closePipeline(t, p2)
	if info.Recovered {
		t.Fatal("WAL-only boot claimed a snapshot recovery")
	}
	if info.WALReplayed == 0 {
		t.Fatal("WAL-only boot replayed nothing")
	}
	if _, rows := p2.Warehouse.Counts(); rows != wantRows {
		t.Fatalf("WAL-only boot recovered %d rows, want %d", rows, wantRows)
	}
	if got := answerFingerprint(t, p2); got != want {
		t.Fatal("WAL-only boot diverges from the uninterrupted run")
	}
}

// TestRecoveredPipelineKeepsJournaling ensures feeds after a recovery are
// themselves durable: a second crash-and-recover sees them.
func TestRecoveredPipelineKeepsJournaling(t *testing.T) {
	cfg := recoveryConfig()
	dir := t.TempDir()
	p, _, err := OpenPipeline(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	questions := p.WeatherQuestions()
	if len(questions) < 2 {
		t.Fatalf("need at least 2 questions, have %d", len(questions))
	}
	if _, err := p.Step5FeedWarehouse(questions[:1]); err != nil {
		t.Fatal(err)
	}
	closePipeline(t, p)

	p2, _, err := OpenPipeline(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p2.Step5FeedWarehouse(questions[1:]); err != nil {
		t.Fatal(err)
	}
	want := answerFingerprint(t, p2)
	_, wantRows := p2.Warehouse.Counts()
	closePipeline(t, p2)

	p3, info, err := OpenPipeline(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer closePipeline(t, p3)
	if info.WALReplayed == 0 {
		t.Fatal("post-recovery feed was not journaled")
	}
	if _, rows := p3.Warehouse.Counts(); rows != wantRows {
		t.Fatalf("third boot recovered %d rows, want %d", rows, wantRows)
	}
	if got := answerFingerprint(t, p3); got != want {
		t.Fatal("third boot diverges")
	}
}

// TestRecoveryRejectsConfigMismatch pins the fingerprint gate: a data
// directory created under one scenario configuration refuses to graft
// its state onto a differently-configured boot.
func TestRecoveryRejectsConfigMismatch(t *testing.T) {
	cfg := recoveryConfig()
	dir := t.TempDir()
	p, _, err := OpenPipeline(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	closePipeline(t, p)

	other := cfg
	other.Seed = cfg.Seed + 1
	if _, _, err := OpenPipeline(other, dir); err == nil {
		t.Fatal("mismatched seed recovered silently")
	} else if !strings.Contains(err.Error(), "different scenario parameters") {
		t.Fatalf("unhelpful mismatch error: %v", err)
	}

	// The matching configuration still recovers.
	p2, info, err := OpenPipeline(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer closePipeline(t, p2)
	if !info.Recovered {
		t.Fatal("matching config did not recover")
	}
}

// Compile-time checks: the pipeline exports its state, and its
// persistence handle satisfies the engine's snapshot source contract.
var (
	_ interface{ ExportState() (*store.State, error) } = (*Pipeline)(nil)
	_ engine.Snapshotter                               = (*shard.Durable)(nil)
)
