package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"dwqa/internal/engine"
)

// The sharded equivalence oracle (ISSUE 8): a cluster of 1, 2 or 4
// shards must answer byte-identically to the single-node pipeline —
// factoid traces and analytic result tables — including after feeds
// split into random slices, and a replica that starts tailing mid-feed
// must converge to the leader's exported state.

// shardedFingerprint renders every factoid trace and analytic answer of
// the workload — the same byte-identity oracle answerFingerprint uses
// for the single-node pipeline.
func shardedFingerprint(t *testing.T, sp *Pipeline) string {
	t.Helper()
	eng, err := sp.Engine()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, q := range weatherQuestions(sp.Config, sp.Corpus) {
		res, err := sp.QA.Answer(q)
		if err != nil {
			t.Fatalf("ask %q: %v", q, err)
		}
		b.WriteString(res.Trace().Format())
		b.WriteByte('\n')
	}
	for _, q := range AnalyticQuestions() {
		ans, err := eng.AskOLAP(context.Background(), q)
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

// randomSlices cuts the workload into random contiguous feed batches —
// every topology feeds the same slices in the same order.
func randomSlices(questions []string, seed int64) [][]string {
	rng := rand.New(rand.NewSource(seed))
	var slices [][]string
	for start := 0; start < len(questions); {
		n := 1 + rng.Intn(3)
		end := start + n
		if end > len(questions) {
			end = len(questions)
		}
		slices = append(slices, questions[start:end])
		start = end
	}
	return slices
}

func TestShardedEquivalence(t *testing.T) {
	cfg := recoveryConfig()

	// Single-node reference: integrate, feed in random slices, fingerprint.
	ref, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Integrate(); err != nil {
		t.Fatal(err)
	}
	slices := randomSlices(ref.WeatherQuestions(), 8)
	for _, s := range slices {
		if _, err := ref.Step5FeedWarehouse(s); err != nil {
			t.Fatal(err)
		}
	}
	want := answerFingerprint(t, ref)
	wantSales := ref.Warehouse.FactCount("LastMinuteSales")
	wantWeather := ref.Warehouse.FactCount("Weather")
	if wantWeather == 0 {
		t.Fatal("reference feed loaded nothing; the oracle would be vacuous")
	}

	for _, shards := range []int{1, 2, 4} {
		sp, err := NewShardedPipeline(cfg, shards)
		if err != nil {
			t.Fatalf("%d shards: %v", shards, err)
		}
		if err := sp.Integrate(); err != nil {
			t.Fatalf("%d shards: %v", shards, err)
		}
		for _, s := range slices {
			if _, err := sp.Step5FeedWarehouse(s); err != nil {
				t.Fatalf("%d shards: feeding: %v", shards, err)
			}
		}
		if got := sp.Cluster.FactCount("LastMinuteSales"); got != wantSales {
			t.Errorf("%d shards: %d sales rows, single-node has %d", shards, got, wantSales)
		}
		if got := sp.Cluster.FactCount("Weather"); got != wantWeather {
			t.Errorf("%d shards: %d weather rows, single-node has %d", shards, got, wantWeather)
		}
		if got := shardedFingerprint(t, sp); got != want {
			t.Errorf("%d shards: answers diverge from single-node\nwant:\n%s\ngot:\n%s", shards, firstDiff(want, got), firstDiff(got, want))
		}
		// Rows must actually partition: with >1 shard and several cities
		// no shard should hold everything (FNV spreads the city pool).
		if shards > 1 {
			full := 0
			for i := 0; i < shards; i++ {
				if sp.Cluster.Node(i).WH.FactCount("LastMinuteSales") == wantSales {
					full++
				}
			}
			if full > 0 {
				t.Errorf("%d shards: a single shard holds every sales row — nothing partitioned", shards)
			}
		}
	}
}

// firstDiff trims two long oracle strings to the first divergent region
// so failures stay readable.
func firstDiff(a, b string) string {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	start := i - 80
	if start < 0 {
		start = 0
	}
	end := i + 160
	if end > len(a) {
		end = len(a)
	}
	return a[start:end]
}

// TestShardedScatterGatherOLAP pins the scatter/gather plan path against
// the cluster-wide reference: every generated query shape over the
// scaled scenario merges to the same table the single warehouse
// produces.
func TestShardedScatterGatherOLAP(t *testing.T) {
	cfg := recoveryConfig()
	ref, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := NewShardedPipeline(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	q := ScaledOLAPQuery()
	wantRes, err := ref.Warehouse.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	gotRes, err := sp.Cluster.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if wantRes.Format() != gotRes.Format() {
		t.Errorf("scatter/gather diverges from single warehouse\nwant:\n%s\ngot:\n%s", wantRes.Format(), gotRes.Format())
	}
}

// TestShardedReplicaConvergence drives the full replication story: a
// durable leader boots and feeds, a replica opens from the shipped
// snapshots mid-feed, tails the WAL while the leader keeps feeding
// (including across a leader snapshot that resets the WAL — the
// ErrReplicaGap → reload arm), and converges to the leader's exported
// per-shard state exactly. At one shard the replica follows the
// single-node layout, the store kept in the directory root.
func TestShardedReplicaConvergence(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { testReplicaConvergence(t, shards) })
	}
}

func testReplicaConvergence(t *testing.T, shards int) {
	cfg := recoveryConfig()
	dir := t.TempDir()

	leader, info, err := OpenShardedPipeline(cfg, dir, shards)
	if err != nil {
		t.Fatal(err)
	}
	if info.Recovered {
		t.Fatal("fresh directory reported a recovery")
	}
	defer leader.Durable().Close()

	questions := weatherQuestions(leader.Config, leader.Corpus)
	if len(questions) < 4 {
		t.Fatalf("workload too small for a mid-feed replica: %d questions", len(questions))
	}
	mid := len(questions) / 2
	for _, q := range questions[:mid] {
		if _, err := leader.Step5FeedWarehouse([]string{q}); err != nil {
			t.Fatal(err)
		}
	}

	// Replica opens mid-feed: snapshots cover the baseline, the WAL tail
	// covers the first half of the feed.
	replica, err := OpenShardedFollower(cfg, dir, shards)
	if err != nil {
		t.Fatal(err)
	}

	// Leader keeps feeding; a snapshot halfway through resets the WAL
	// underneath the replica, forcing the gap → reload arm.
	for i, q := range questions[mid:] {
		if _, err := leader.Step5FeedWarehouse([]string{q}); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			leaderEng, err := leader.Engine()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := leaderEng.SnapshotTo(); err != nil {
				t.Fatal(err)
			}
		}
	}

	if _, err := replica.Poll(); err != nil {
		t.Fatal(err)
	}

	// Converged: per-shard warehouse and index state identical.
	wantStates := leader.ExportShardStates()
	gotStates := replica.ExportShardStates()
	for i := range wantStates {
		if !reflect.DeepEqual(wantStates[i].DW, gotStates[i].DW) {
			t.Errorf("shard %d: replica warehouse state diverges from leader", i)
		}
		if !reflect.DeepEqual(wantStates[i].IR, gotStates[i].IR) {
			t.Errorf("shard %d: replica index state diverges from leader", i)
		}
	}

	// The replica answers like the leader and refuses feeds.
	if got, want := shardedFingerprint(t, replica), shardedFingerprint(t, leader); got != want {
		t.Error("replica answers diverge from leader")
	}
	repEng, err := replica.Engine()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := repEng.HarvestAll(context.Background(), questions[:1]); err == nil {
		t.Error("replica accepted a feed; it must be read-only")
	}

	// Replication stats: caught up means zero lag on every shard.
	for _, s := range replica.ReplicaStats() {
		if s.Lag != 0 {
			t.Errorf("shard %d: lag %d after convergence", s.Shard, s.Lag)
		}
		if s.Seq == 0 {
			t.Errorf("shard %d: applied sequence is 0 — the tail never advanced", s.Shard)
		}
	}

	// And the engine surfaces per-shard stats on both sides.
	leaderEng, err := leader.Engine()
	if err != nil {
		t.Fatal(err)
	}
	if stats := leaderEng.Stats(); len(stats.Shards) != shards {
		t.Errorf("leader stats report %d shards, want %d", len(stats.Shards), shards)
	}
	if stats := repEng.Stats(); len(stats.Shards) != shards {
		t.Errorf("replica stats report %d shards, want %d", len(stats.Shards), shards)
	}
}

// TestShardedRestart is the durable round trip: a restarted leader
// recovers every shard from snapshot + WAL and answers byte-identically
// without re-feeding. Both the fed leader and the rebooted one must
// report their durability alike through the engine's one persistence
// seam: Stats and the WAL metrics agree, and the reboot replays the feed.
func TestShardedRestart(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { testShardedRestart(t, shards) })
	}
}

// durabilityReport is what an engine reports about its durability:
// Stats' fields and the WAL metrics. It fails the test when the two
// disagree on the sequence or the WAL refused an append.
func durabilityReport(t *testing.T, eng *engine.Engine) engine.Stats {
	t.Helper()
	var buf bytes.Buffer
	if _, err := eng.Metrics().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	metric := func(name string) string {
		for _, line := range strings.Split(buf.String(), "\n") {
			if v, ok := strings.CutPrefix(line, name+" "); ok {
				return v
			}
		}
		t.Fatalf("no %s in /metrics", name)
		return ""
	}
	st := eng.Stats()
	if !st.Durable {
		t.Error("durable pipeline reports Durable false")
	}
	if got, want := metric("dwqa_wal_seq"), fmt.Sprint(st.WALSeq); got != want {
		t.Errorf("dwqa_wal_seq %s, Stats.WALSeq %s", got, want)
	}
	if got := metric("dwqa_wal_errors_total"); got != "0" || st.WALErrors != 0 {
		t.Errorf("WAL errors: metric %s, Stats %d", got, st.WALErrors)
	}
	return st
}

func testShardedRestart(t *testing.T, shards int) {
	cfg := recoveryConfig()
	dir := t.TempDir()

	p1, _, err := OpenShardedPipeline(cfg, dir, shards)
	if err != nil {
		t.Fatal(err)
	}
	slices := randomSlices(weatherQuestions(p1.Config, p1.Corpus), 3)
	for _, s := range slices {
		if _, err := p1.Step5FeedWarehouse(s); err != nil {
			t.Fatal(err)
		}
	}
	want := shardedFingerprint(t, p1)
	_, wantRows := p1.Cluster.Counts()
	eng1, err := p1.Engine()
	if err != nil {
		t.Fatal(err)
	}
	if st := durabilityReport(t, eng1); st.WALSeq == 0 || st.FactRows != wantRows {
		t.Fatalf("fed leader reports WAL seq %d and %d fact rows, want > 0 and %d", st.WALSeq, st.FactRows, wantRows)
	}
	// Close without a final snapshot, so the reboot replays the feed.
	if err := p1.Durable().Close(); err != nil {
		t.Fatal(err)
	}

	p2, info, err := OpenShardedPipeline(cfg, dir, shards)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Durable().Close()
	if !info.Recovered {
		t.Fatal("restart did not recover from snapshots")
	}
	if _, rows := p2.Cluster.Counts(); rows != wantRows {
		t.Errorf("recovered %d fact rows, want %d", rows, wantRows)
	}
	if got := shardedFingerprint(t, p2); got != want {
		t.Error("recovered cluster answers diverge")
	}
	eng2, err := p2.Engine()
	if err != nil {
		t.Fatal(err)
	}
	if st := durabilityReport(t, eng2); !st.Recovered || st.WALReplayed == 0 || st.FactRows != wantRows {
		t.Errorf("rebooted leader reports recovered %v, %d WAL records replayed, %d fact rows; want true, > 0, %d",
			st.Recovered, st.WALReplayed, st.FactRows, wantRows)
	}

	// Topology is pinned: reopening with a different shard count must
	// refuse the directory, not silently re-partition.
	if _, _, err := OpenShardedPipeline(cfg, dir, shards+1); err == nil {
		t.Error("open with a different shard count succeeded; fingerprint should refuse it")
	}
}
