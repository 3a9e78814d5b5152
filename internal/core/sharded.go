package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dwqa/internal/dw"
	"dwqa/internal/engine"
	"dwqa/internal/etl"
	"dwqa/internal/ir"
	"dwqa/internal/mdm"
	"dwqa/internal/merge"
	"dwqa/internal/obs"
	"dwqa/internal/ontology"
	"dwqa/internal/qa"
	"dwqa/internal/shard"
	"dwqa/internal/store"
	"dwqa/internal/uml2onto"
	"dwqa/internal/webcorpus"
	"dwqa/internal/wordnet"
)

// The sharded deployment of the five-step pipeline (DESIGN.md §10): the
// same scenario, corpus and QA stack as Pipeline, but the warehouse
// fact columns and the passage index partition across N shards by
// city-dimension hash (shard.Cluster). Answers are byte-identical to a
// single-node Pipeline — the equivalence suite pins factoid and
// analytic answers across 1/2/4-shard topologies — because dimensions
// replicate, OLAP plans scatter/gather through the deterministic cell
// merge, and retrieval federates with global corpus statistics.

// ScenarioRoutes is the fact routing for the Figure 1 schema: weather
// rows hash by their City coordinate, sales rows by the city their
// Destination airport rolls up to — so one city's weather and inbound
// sales co-locate on one shard.
func ScenarioRoutes() map[string]shard.Route {
	return map[string]shard.Route{
		"Weather":         {Role: "City", Level: "City"},
		"LastMinuteSales": {Role: "Destination", Level: "City"},
	}
}

// ShardedPipeline is the N-shard counterpart of Pipeline: one writer
// process owns the cluster (and, when opened durably, its per-shard
// stores); follower processes open the same directory read-only and
// tail the WAL (OpenShardedFollower).
type ShardedPipeline struct {
	Config Config

	Schema  *mdm.Schema
	Cluster *shard.Cluster
	Corpus  *webcorpus.Corpus
	Lexicon *wordnet.WordNet

	Ontology    *ontology.Ontology
	MergeReport *merge.Report
	QA          *qa.System
	Loader      *etl.Loader

	integrated atomic.Bool

	mu       sync.Mutex
	eng      *engine.Engine
	durable  *shard.Durable      // leader persistence; nil in-memory or follower
	follower *shard.Follower     // replica tail; nil on the writer
	recovery *store.RecoveryInfo // what a durable open recovered
}

// newScenarioCluster builds an empty cluster with the scenario schema,
// routes and the config's index geometry.
func newScenarioCluster(cfg Config, shards int) (*mdm.Schema, *shard.Cluster, error) {
	schema := Figure1Schema()
	var opts []ir.Option
	if cfg.PassageSize > 0 {
		opts = append(opts, ir.WithPassageSize(cfg.PassageSize))
	}
	cl, err := shard.NewCluster(schema, shards, ScenarioRoutes(), opts...)
	if err != nil {
		return nil, nil, fmt.Errorf("core: %w", err)
	}
	return schema, cl, nil
}

// NewShardedPipeline builds the scenario environment over N shards —
// the sharded analogue of NewPipeline: populated cluster, web corpus,
// partitioned passage index. Integrate() runs the setup steps.
func NewShardedPipeline(cfg Config, shards int) (*ShardedPipeline, error) {
	cfg = normalizeConfig(cfg)
	schema, cl, err := newScenarioCluster(cfg, shards)
	if err != nil {
		return nil, err
	}
	if err := PopulateScenarioScaled(cl, cfg.Year, cfg.Months, cfg.Seed, cfg.ScaleFactor); err != nil {
		return nil, fmt.Errorf("core: populating scenario: %w", err)
	}
	corpus := webcorpus.Build(corpusConfig(cfg))
	if err := indexCorpusSharded(cl, corpus, cfg.TableAware); err != nil {
		return nil, fmt.Errorf("core: indexing corpus: %w", err)
	}
	return &ShardedPipeline{
		Config:  cfg,
		Schema:  schema,
		Cluster: cl,
		Corpus:  corpus,
		Lexicon: wordnet.Seed(),
	}, nil
}

// indexCorpusSharded feeds the corpus into the cluster in publication
// order — ordinals follow it, which is what keeps federated ranking
// identical to a single index built by one AddBatch. Weather pages
// route by their subject city (co-located with the city's facts);
// distractor pages, which have no subject, route by URL.
func indexCorpusSharded(cl *shard.Cluster, corpus *webcorpus.Corpus, tableAware bool) error {
	docs := corpus.Documents(tableAware)
	for i, doc := range docs {
		key := doc.URL
		if i < len(corpus.Pages) && corpus.Pages[i].URL == doc.URL && len(corpus.Pages[i].Gold) > 0 {
			key = corpus.Pages[i].Gold[0].City
		}
		if err := cl.AddDocument(doc, key); err != nil {
			return err
		}
	}
	return nil
}

// Integrate runs the setup steps (1-4) over the cluster: ontology
// derivation and feeding, upper-ontology merge, QA tuning. The sharded
// pipeline exposes them as one call — the per-step staging Pipeline
// offers exists for the paper walk-through, not for serving. A pipeline
// whose ontology was restored from a snapshot already holds Steps 1-2,
// so only the cheap deterministic Step 3/4 tail runs.
func (sp *ShardedPipeline) Integrate() error {
	if sp.Ontology == nil {
		o, err := uml2onto.Transform(sp.Schema)
		if err != nil {
			return err
		}
		if err := feedOntologyFromMembers(o, sp.Cluster); err != nil {
			return err
		}
		sp.Ontology = o
	}
	rep, err := mergeUpperOntology(sp.Config, sp.Ontology, sp.Lexicon)
	if err != nil {
		return err
	}
	sys, err := tuneQA(sp.Config, sp.Ontology, sp.Lexicon, sp.Cluster)
	if err != nil {
		return err
	}
	sp.MergeReport, sp.QA = rep, sys
	sp.integrated.Store(true)
	return nil
}

// Engine returns the serving engine over the cluster, creating it on
// first call. On a follower the engine has no loader — feeds are
// refused with a clear error — and its per-shard stats report
// replication lag instead of the writer's sequences.
func (sp *ShardedPipeline) Engine() (*engine.Engine, error) {
	if !sp.integrated.Load() {
		return nil, fmt.Errorf("core: sharded engine requires Integrate() first")
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.eng != nil {
		return sp.eng, nil
	}
	var loader *etl.Loader
	if sp.follower == nil {
		if sp.Loader == nil {
			l, err := etl.NewLoader(sp.Ontology, sp.Cluster, "Weather", "City", "Date")
			if err != nil {
				return nil, err
			}
			sp.Loader = l
		}
		loader = sp.Loader
	}
	harvester, err := newHarvester(sp.Config, sp.Ontology, sp.Lexicon, sp.Cluster)
	if err != nil {
		return nil, err
	}
	trans, err := NewScenarioTranslator(sp.Cluster, qaOntology(sp.Config, sp.Ontology))
	if err != nil {
		return nil, err
	}
	parts := engineParts{ask: sp.QA, harvester: harvester, loader: loader, corpus: sp.Cluster,
		warehouse: sp.Cluster, trans: trans, harvest: weatherQuestions(sp.Config, sp.Corpus)}
	if d := sp.durable; d != nil {
		parts.snap, parts.stores, parts.recovery = d, d.Stores(), sp.recovery
	}
	eng, err := newEngine(sp.Config, parts)
	if err != nil {
		return nil, err
	}
	// Per-shard fan-out latency lands in the engine's stage histograms.
	sp.Cluster.SetFanoutHistogram(eng.StageHistogram(obs.StageShardFanout))
	if d := sp.durable; d != nil {
		eng.SetShardStats(func() []engine.ShardStat {
			seqs := d.ShardSeqs()
			out := make([]engine.ShardStat, len(seqs))
			for i, s := range seqs {
				out[i] = engine.ShardStat{Shard: i, Seq: s}
			}
			return out
		})
	}
	if f := sp.follower; f != nil {
		eng.SetReadOnlyReplica()
		eng.SetShardStats(func() []engine.ShardStat {
			stats := f.Stats()
			out := make([]engine.ShardStat, len(stats))
			for i, s := range stats {
				out[i] = engine.ShardStat{Shard: s.Shard, Seq: s.Seq, Lag: s.Lag}
			}
			return out
		})
	}
	sp.eng = eng
	return eng, nil
}

// AskAll answers a question batch on the serving engine.
func (sp *ShardedPipeline) AskAll(questions []string) ([]engine.AskResult, error) {
	eng, err := sp.Engine()
	if err != nil {
		return nil, err
	}
	return eng.AskAll(context.Background(), questions), nil
}

// Feed runs the Step 5 harvest-and-load over the cluster (writer only).
// An empty batch feeds the engine's default workload, the scenario's
// weather questions.
func (sp *ShardedPipeline) Feed(questions []string) ([]StepResult, error) {
	eng, err := sp.Engine()
	if err != nil {
		return nil, err
	}
	items, _, err := eng.HarvestAll(context.Background(), questions)
	if err != nil {
		return nil, err
	}
	var results []StepResult
	for _, it := range items {
		if it.Err != nil {
			return nil, fmt.Errorf("core: feed question %q: %w", it.Question, it.Err)
		}
		results = append(results, StepResult{Question: it.Question, Answers: it.Loaded})
	}
	return results, nil
}

// Summary renders a human-readable cluster summary.
func (sp *ShardedPipeline) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sharded pipeline (%d shards, seed %d, year %d, months %v)\n",
		sp.Cluster.Shards(), sp.Config.Seed, sp.Config.Year, sp.Config.Months)
	fmt.Fprintf(&b, "  warehouse: %d sales rows, %d weather rows\n",
		sp.Cluster.FactCount("LastMinuteSales"), sp.Cluster.FactCount("Weather"))
	fmt.Fprintf(&b, "  corpus: %d pages, %d passages indexed\n", len(sp.Corpus.Pages), sp.Cluster.PassageCount())
	for i := 0; i < sp.Cluster.Shards(); i++ {
		node := sp.Cluster.Node(i)
		_, rows := node.WH.Counts()
		fmt.Fprintf(&b, "  shard %d: %d fact rows, %d docs, %d passages\n",
			i, rows, node.IX.DocCount(), node.IX.PassageCount())
	}
	return b.String()
}

// Durable returns the leader persistence handle (nil for in-memory and
// follower pipelines).
func (sp *ShardedPipeline) Durable() *shard.Durable {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.durable
}

// RecoveryInfo returns what the durable open recovered (nil in-memory).
func (sp *ShardedPipeline) RecoveryInfo() *store.RecoveryInfo {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.recovery
}

// ExportShardStates exports every shard's warehouse and index — the
// comparable cluster state. A leader and a caught-up replica built over
// the same directory export byte-identical encodings (the replica
// convergence check compares store.EncodeState of each entry).
func (sp *ShardedPipeline) ExportShardStates() []*store.State {
	fp := configFingerprint(sp.Config)
	n := sp.Cluster.Shards()
	states := make([]*store.State, n)
	for i := 0; i < n; i++ {
		node := sp.Cluster.Node(i)
		states[i] = &store.State{
			Fingerprint: shard.ShardFingerprint(fp, i, n),
			DW:          node.WH.Export(),
			IR:          node.IX.Export(),
		}
	}
	return states
}

// --- Durable leader ---

// OpenShardedPipeline boots a sharded writer from a cluster directory
// (one store per shard under it), recovering each shard from its newest
// snapshot plus WAL tail, or building the deterministic baseline fresh
// on first boot — the sharded analogue of OpenPipeline.
func OpenShardedPipeline(cfg Config, dataDir string, shards int) (*ShardedPipeline, *store.RecoveryInfo, error) {
	return OpenShardedPipelineFS(cfg, dataDir, shards, store.OS())
}

// OpenShardedPipelineFS is OpenShardedPipeline over an explicit
// filesystem (the fault-injection seam).
func OpenShardedPipelineFS(cfg Config, dataDir string, shards int, fsys store.FS) (*ShardedPipeline, *store.RecoveryInfo, error) {
	cfg = normalizeConfig(cfg)
	fp := configFingerprint(cfg)

	stores := make([]*store.Store, shards)
	states := make([]*store.State, shards)
	closeAll := func() {
		for _, st := range stores {
			if st != nil {
				st.Close()
			}
		}
	}
	info := &store.RecoveryInfo{Recovered: true, SnapshotPath: dataDir}
	for i := 0; i < shards; i++ {
		st, err := store.OpenFS(shard.ShardDir(dataDir, i), fsys)
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		stores[i] = st
		state, _, err := st.LoadSnapshot()
		if err != nil {
			closeAll()
			return nil, nil, fmt.Errorf("core: shard %d: %w", i, err)
		}
		if state != nil {
			if err := checkFingerprint(fmt.Sprintf("shard %d snapshot", i), state.Fingerprint, shard.ShardFingerprint(fp, i, shards)); err != nil {
				closeAll()
				return nil, nil, err
			}
			if state.WALSeq > info.SnapshotSeq {
				info.SnapshotSeq = state.WALSeq
			}
		} else {
			info.Recovered = false
		}
		states[i] = state
		info.WALRepaired += st.WALRepaired()
	}

	var sp *ShardedPipeline
	var err error
	if info.Recovered {
		sp, err = recoverSharded(cfg, shards, states)
	} else {
		// First boot (or a crash before every shard published its first
		// snapshot): build the deterministic baseline the WAL records
		// were logged against, then graft whatever snapshots do exist.
		sp, err = NewShardedPipeline(cfg, shards)
		if err == nil {
			err = sp.Integrate()
		}
		for i := 0; err == nil && i < shards; i++ {
			if states[i] != nil {
				err = sp.installShardState(i, states[i])
			}
		}
	}
	if err != nil {
		closeAll()
		return nil, nil, err
	}

	// Replay each shard's WAL tail onto its node (snapshot-covered
	// records are skipped by the per-shard sequence gate).
	for i, st := range stores {
		var after uint64
		if states[i] != nil {
			after = states[i].WALSeq
		}
		replayed, rerr := st.Replay(after, sp.Cluster.ReplayHandlers(i))
		if rerr != nil {
			closeAll()
			return nil, nil, fmt.Errorf("core: shard %d WAL replay: %w", i, rerr)
		}
		info.WALReplayed += replayed
	}

	// The feed loader must skip every record already in the cluster.
	loader, err := etl.NewLoader(sp.Ontology, sp.Cluster, "Weather", "City", "Date")
	if err != nil {
		closeAll()
		return nil, nil, err
	}
	if _, err := loader.RestoreDedup(); err != nil {
		closeAll()
		return nil, nil, err
	}

	durable, err := shard.NewDurable(sp.Cluster, dataDir, stores, sp.Ontology, fp)
	if err != nil {
		closeAll()
		return nil, nil, err
	}
	sp.mu.Lock()
	sp.Loader = loader
	sp.durable = durable
	sp.recovery = info
	sp.mu.Unlock()

	if !info.Recovered {
		// Publish the initial per-shard snapshots so the next boot (and
		// any follower) restores instead of rebuilding.
		publish, perr := durable.ExportForSnapshot()
		if perr == nil {
			_, perr = publish()
		}
		if perr != nil {
			closeAll()
			return nil, nil, perr
		}
	}

	// Journals attach last: everything before is in a snapshot or the
	// WAL already; everything after gets logged.
	durable.AttachJournals()
	return sp, info, nil
}

// recoverSharded rebuilds a sharded pipeline around restored per-shard
// states: bulk-import every shard and rebuild the cheap derived pieces
// around the ontology they replicate.
func recoverSharded(cfg Config, shards int, states []*store.State) (*ShardedPipeline, error) {
	schema, cl, err := newScenarioCluster(cfg, shards)
	if err != nil {
		return nil, err
	}
	sp, err := restoredSharded(cfg, schema, cl, states[0].Onto)
	if err != nil {
		return nil, err
	}
	for i, state := range states {
		if err := sp.installShardState(i, state); err != nil {
			return nil, err
		}
	}
	return sp, nil
}

// restoredSharded assembles an integrated pipeline over cl around an
// ontology restored from a shard snapshot (every shard embeds the same
// replicated one): Steps 1-2 live inside it, so only the Step 3/4 tail
// runs. Neither step reads the shards, so their nodes may be installed
// afterwards.
func restoredSharded(cfg Config, schema *mdm.Schema, cl *shard.Cluster, snap *ontology.Snapshot) (*ShardedPipeline, error) {
	onto, err := ontology.FromSnapshot(snap)
	if err != nil {
		return nil, fmt.Errorf("core: restoring ontology: %w", err)
	}
	sp := &ShardedPipeline{
		Config:   cfg,
		Schema:   schema,
		Cluster:  cl,
		Corpus:   webcorpus.Build(corpusConfig(cfg)),
		Lexicon:  wordnet.Seed(),
		Ontology: onto,
	}
	if err := sp.Integrate(); err != nil {
		return nil, err
	}
	return sp, nil
}

// installShardState swaps shard i's node for one imported from a
// snapshot state and rebuilds its ordinal entries.
func (sp *ShardedPipeline) installShardState(i int, state *store.State) error {
	wh, err := dw.New(sp.Schema)
	if err != nil {
		return err
	}
	if err := wh.Import(state.DW); err != nil {
		return fmt.Errorf("core: shard %d: restoring warehouse: %w", i, err)
	}
	ix := ir.NewIndex() // geometry comes from the snapshot
	if err := ix.Import(state.IR); err != nil {
		return fmt.Errorf("core: shard %d: restoring index: %w", i, err)
	}
	sp.Cluster.SetNode(i, &shard.Node{WH: wh, IX: ix})
	return sp.Cluster.ReindexShard(i)
}

// --- Follower (read replica) ---

// OpenShardedFollower opens a leader's cluster directory read-only: it
// loads every shard's newest shipped snapshot, tails the WAL once to
// catch up, and returns a serving-ready read replica. Poll (or
// StartTailing) keeps it converging while the leader feeds.
func OpenShardedFollower(cfg Config, dataDir string, shards int) (*ShardedPipeline, error) {
	return OpenShardedFollowerFS(cfg, dataDir, shards, store.OS())
}

// OpenShardedFollowerFS is OpenShardedFollower over an explicit
// filesystem.
func OpenShardedFollowerFS(cfg Config, dataDir string, shards int, fsys store.FS) (*ShardedPipeline, error) {
	cfg = normalizeConfig(cfg)
	fp := configFingerprint(cfg)
	schema, cl, err := newScenarioCluster(cfg, shards)
	if err != nil {
		return nil, err
	}
	f := shard.NewFollower(cl, fsys, dataDir)
	states, err := f.Bootstrap()
	if err != nil {
		return nil, err
	}
	for i, state := range states {
		if state == nil {
			return nil, fmt.Errorf("core: shard %d has no snapshot yet — start the leader first (it publishes the baseline at boot)", i)
		}
		if err := checkFingerprint(fmt.Sprintf("shard %d snapshot", i), state.Fingerprint, shard.ShardFingerprint(fp, i, shards)); err != nil {
			return nil, err
		}
	}
	sp, err := restoredSharded(cfg, schema, cl, states[0].Onto)
	if err != nil {
		return nil, err
	}
	sp.follower = f
	// Catch up past the snapshots before first serve.
	if _, err := f.Poll(); err != nil {
		return nil, err
	}
	return sp, nil
}

// Poll advances a follower one catch-up round and flushes the answer
// cache when anything applied. Returns records applied.
func (sp *ShardedPipeline) Poll() (int, error) {
	sp.mu.Lock()
	f := sp.follower
	eng := sp.eng
	sp.mu.Unlock()
	if f == nil {
		return 0, fmt.Errorf("core: Poll is for followers (OpenShardedFollower)")
	}
	n, err := f.Poll()
	if n > 0 && eng != nil {
		eng.InvalidateCache()
	}
	return n, err
}

// StartTailing polls the leader directory at the given interval until
// the returned stop function is called. Errors go to onErr (may be
// nil); polling continues after errors — a torn read this round
// succeeds the next.
func (sp *ShardedPipeline) StartTailing(interval time.Duration, onErr func(error)) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				if _, err := sp.Poll(); err != nil && onErr != nil {
					onErr(err)
				}
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(done) })
		wg.Wait()
	}
}

// ReplicaStats reports a follower's per-shard replication position.
func (sp *ShardedPipeline) ReplicaStats() []shard.FollowerStat {
	sp.mu.Lock()
	f := sp.follower
	sp.mu.Unlock()
	if f == nil {
		return nil
	}
	return f.Stats()
}
