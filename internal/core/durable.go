package core

import (
	"fmt"
	"sync"
	"time"

	"dwqa/internal/dw"
	"dwqa/internal/etl"
	"dwqa/internal/ir"
	"dwqa/internal/ontology"
	"dwqa/internal/shard"
	"dwqa/internal/store"
)

// The durable pipeline: OpenShardedPipeline boots from a data directory
// holding one store per shard (a 1-shard cluster keeps its store in the
// root — the single-node layout), recovering the warehouse, index and
// ontology from each shard's newest valid snapshot plus its WAL tail —
// or building them fresh on first boot — and attaches the journals so
// every subsequent feed is persisted. OpenShardedFollower opens the same
// directory as a read replica.
//
// Recovery invariants (tested by recovery_test.go and sharded_test.go):
//
//   - Restore is a bulk load: warehouse columns, index postings and
//     analysed sentences come straight out of the snapshot; nothing is
//     re-tokenised, re-interned or re-windowed.
//   - WAL replay is idempotent by construction: records covered by the
//     snapshot (seq ≤ its WALSeq) are skipped, replay truncates at the
//     first corrupt record, and the Step 5 loader's dedup state is
//     rebuilt from warehouse provenance, so re-running the same harvest
//     after recovery skips everything that survived.
//   - The cheap deterministic steps (the WordNet merge of Step 3, the
//     Step 4 tuning) re-run at boot from the restored ontology; the
//     expensive state (corpus indexing, harvested facts) never rebuilds.

// OpenPipeline opens dataDir as a single node and returns a
// serving-ready pipeline (steps 1-4 complete): OpenShardedPipeline at
// N = 1.
//
// The caller owns the store lifecycle: close the pipeline's Store (see
// Pipeline.Store) when done, ideally after a final Engine().SnapshotTo().
func OpenPipeline(cfg Config, dataDir string) (*Pipeline, *store.RecoveryInfo, error) {
	return OpenShardedPipeline(cfg, dataDir, 1)
}

// OpenPipelineFS is OpenPipeline over an explicit filesystem — the seam
// the chaos tests use to boot a durable pipeline on a fault-injecting
// store.FaultFS and drive it through scheduled disk failures.
func OpenPipelineFS(cfg Config, dataDir string, fsys store.FS) (*Pipeline, *store.RecoveryInfo, error) {
	return OpenShardedPipelineFS(cfg, dataDir, 1, fsys)
}

// OpenShardedPipeline boots a writer over N shards from dataDir. With a
// usable snapshot in every shard's store the pipeline is recovered —
// warehouse, index and ontology restored, WAL tails replayed, loader
// dedup rebuilt. Otherwise the scenario pipeline is built fresh,
// integrated through Step 4 and published as the initial snapshots.
// Either way the journals are attached before return, so every later
// feed (Step5FeedWarehouse, /harvest) lands in the WAL, and the engine
// is wired for SnapshotTo/background snapshots.
//
// The caller owns the store lifecycle: close Durable() when done,
// ideally after a final Engine().SnapshotTo().
func OpenShardedPipeline(cfg Config, dataDir string, shards int) (*Pipeline, *store.RecoveryInfo, error) {
	return OpenShardedPipelineFS(cfg, dataDir, shards, store.OS())
}

// OpenShardedPipelineFS is OpenShardedPipeline over an explicit
// filesystem (the fault-injection seam).
func OpenShardedPipelineFS(cfg Config, dataDir string, shards int, fsys store.FS) (*Pipeline, *store.RecoveryInfo, error) {
	cfg = normalizeConfig(cfg)
	fp := configFingerprint(cfg)
	if err := checkLayout(fsys, dataDir, shards); err != nil {
		return nil, nil, err
	}

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
		st, err := store.OpenFS(shard.ShardDir(dataDir, i, shards), fsys)
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		stores[i] = st
		state, path, err := st.LoadSnapshot()
		if err == nil && state != nil {
			err = checkFingerprint(i, shards, state.Fingerprint, fp)
		}
		if err != nil {
			closeAll()
			return nil, nil, fmt.Errorf("core: %w", err)
		}
		if state != nil {
			info.SnapshotSeq = max(info.SnapshotSeq, state.WALSeq)
			if shards == 1 {
				info.SnapshotPath = path // the snapshot that won; a cluster reports its root
			}
		} else {
			info.Recovered = false
		}
		states[i] = state
		info.WALRepaired += st.WALRepaired()
	}

	p, err := bootLeader(cfg, shards, states, info.Recovered)
	if err != nil {
		closeAll()
		return nil, nil, err
	}

	// Replay each shard's WAL tail onto its node (snapshot-covered
	// records are skipped by the per-shard sequence gate; on a fresh
	// boot everything in the log re-applies to the deterministic
	// baseline).
	for i, st := range stores {
		var after uint64
		if states[i] != nil {
			after = states[i].WALSeq
		}
		replayed, err := st.Replay(after, p.Cluster.ReplayHandlers(i))
		if err != nil {
			closeAll()
			return nil, nil, fmt.Errorf("core: shard %d WAL replay: %w", i, err)
		}
		info.WALReplayed += replayed
	}

	// The Step 5 loader must skip every record already in the warehouse
	// when a harvest re-runs after recovery.
	loader, err := etl.NewLoader(p.Ontology, p.Cluster, "Weather", "City", "Date")
	if err == nil {
		_, err = loader.RestoreDedup()
	}
	var durable *shard.Durable
	if err == nil {
		durable, err = shard.NewDurable(p.Cluster, dataDir, stores, p.Ontology, fp)
	}
	if err != nil {
		closeAll()
		return nil, nil, err
	}
	p.mu.Lock()
	p.Loader = loader
	p.durable = durable
	p.recovery = info
	p.mu.Unlock()

	if !info.Recovered {
		// Publish the initial snapshots so the next boot (and any
		// follower) restores instead of rebuilding; this also absorbs
		// any replayed orphan WAL.
		publish, err := durable.ExportForSnapshot()
		if err == nil {
			_, err = publish()
		}
		if err != nil {
			closeAll()
			return nil, nil, err
		}
	}

	// Journals attach last: everything before this point is either inside
	// a snapshot or already in the WAL; everything after gets logged.
	durable.AttachJournals()
	return p, info, nil
}

// bootLeader builds the pipeline a leader's WAL replays onto. Recovered:
// every shard's node is imported from its snapshot around the ontology
// they replicate. Otherwise (first boot, or a crash before every shard
// published its first snapshot): the deterministic baseline the WAL
// records were logged against, with whatever snapshots do exist grafted
// on.
func bootLeader(cfg Config, shards int, states []*store.State, recovered bool) (*Pipeline, error) {
	var p *Pipeline
	var err error
	if recovered {
		if p, err = newShell(cfg, shards); err == nil {
			err = p.adoptOntology(states[0].Onto)
		}
	} else if p, err = NewShardedPipeline(cfg, shards); err == nil {
		err = p.Integrate()
	}
	for i := 0; err == nil && i < shards; i++ {
		if states[i] != nil {
			if err = p.Cluster.InstallState(i, states[i]); err != nil {
				err = fmt.Errorf("core: shard %d: %w", i, err)
			}
		}
	}
	if err != nil {
		return nil, err
	}
	p.bindNode()
	return p, nil
}

// adoptOntology installs an ontology restored from a snapshot — Steps
// 1-2 live inside it — and re-runs the cheap deterministic Step 3/4
// tail. Neither step reads the shards' state, so their nodes may be
// installed afterwards.
func (p *Pipeline) adoptOntology(snap *ontology.Snapshot) error {
	onto, err := ontology.FromSnapshot(snap)
	if err != nil {
		return fmt.Errorf("core: restoring ontology: %w", err)
	}
	p.Ontology = onto
	p.step.Store(2)
	if err := p.Step3MergeUpperOntology(); err != nil {
		return err
	}
	return p.Step4TuneQA()
}

// checkLayout refuses a directory laid out for another shard count: an
// N-shard directory opened with a different N, or a populated
// single-node root opened as a cluster. DetectShards refuses a lone
// shard-000.
func checkLayout(fsys store.FS, dataDir string, shards int) error {
	n, err := shard.DetectShards(fsys, dataDir)
	if err != nil {
		return err
	}
	if n == 0 && shards > 1 {
		if _, ok := store.SnapshotSeq(fsys, dataDir); ok {
			n = 1
		}
	}
	if n != 0 && n != shards {
		return fmt.Errorf("core: %s was created with %d shard(s), not %d; restart with -shards %d or a fresh data directory", dataDir, n, shards, n)
	}
	return nil
}

// configFingerprint renders the state-shaping scenario parameters — the
// ones that decide what the corpus, index and warehouse contain. A
// snapshot taken under one fingerprint must never be grafted onto a
// pipeline configured with another (the restored index would not match
// the regenerated corpus metadata, and harvest dedup keys would drift).
func configFingerprint(cfg Config) string {
	cfg = normalizeConfig(cfg)
	fp := fmt.Sprintf("seed=%d year=%d months=%v scale=%d passage=%d tableAware=%v",
		cfg.Seed, cfg.Year, cfg.Months, cfg.ScaleFactor, cfg.PassageSize, cfg.TableAware)
	if cfg.Corpus != nil {
		fp += fmt.Sprintf(" corpus=%+v", *cfg.Corpus)
	}
	return fp
}

// checkFingerprint refuses shard i's snapshot when it was stamped for
// another configuration, slot or topology. An unstamped snapshot is
// accepted.
func checkFingerprint(i, shards int, got, fp string) error {
	if want := shard.ShardFingerprint(fp, i, shards); got != "" && got != want {
		what := "data directory"
		if shards > 1 {
			what = fmt.Sprintf("shard %d snapshot", i)
		}
		return fmt.Errorf(
			"%s was created with different scenario parameters (%s) than this boot (%s); restart with matching flags (and -shards) or a fresh data directory",
			what, got, want)
	}
	return nil
}

// RestoreState decodes an encoded snapshot and bulk-loads the warehouse,
// index and ontology it holds — the restore half of recovery, without the
// pipeline built around it.
func RestoreState(snapBytes []byte) (*dw.Warehouse, *ir.Index, *ontology.Ontology, error) {
	state, err := store.DecodeState(snapBytes)
	if err != nil {
		return nil, nil, nil, err
	}
	wh, err := dw.New(Figure1Schema())
	if err != nil {
		return nil, nil, nil, fmt.Errorf("core: %w", err)
	}
	if err := wh.Import(state.DW); err != nil {
		return nil, nil, nil, fmt.Errorf("core: restoring warehouse: %w", err)
	}
	index := ir.NewIndex() // geometry comes from the snapshot
	if err := index.Import(state.IR); err != nil {
		return nil, nil, nil, fmt.Errorf("core: restoring index: %w", err)
	}
	onto, err := ontology.FromSnapshot(state.Onto)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("core: restoring ontology: %w", err)
	}
	return wh, index, onto, nil
}

// ExportState is a deep copy of a 1-shard pipeline's warehouse, index
// and ontology — the state its snapshot holds. Callers driving feeds
// outside the engine must quiesce them themselves.
func (p *Pipeline) ExportState() (*store.State, error) {
	if p.Ontology == nil {
		return nil, fmt.Errorf("core: nothing to export before Step 1 (no ontology)")
	}
	if n := p.Cluster.Shards(); n != 1 {
		return nil, fmt.Errorf("core: ExportState exports one node, this pipeline has %d shards (ExportShardStates)", n)
	}
	state := p.ExportShardStates()[0]
	state.Onto = p.Ontology.Export()
	return state, nil
}

// ExportShardStates exports every shard's warehouse and index — the
// comparable cluster state. A leader and a caught-up replica built over
// the same directory export byte-identical encodings (the replica
// convergence check compares store.EncodeState of each entry).
func (p *Pipeline) ExportShardStates() []*store.State {
	fp := configFingerprint(p.Config)
	n := p.Cluster.Shards()
	states := make([]*store.State, n)
	for i := 0; i < n; i++ {
		node := p.Cluster.Node(i)
		states[i] = &store.State{
			Fingerprint: shard.ShardFingerprint(fp, i, n),
			DW:          node.WH.Export(),
			IR:          node.IX.Export(),
		}
	}
	return states
}

// Durable returns the leader persistence handle — the engine's
// snapshotter — or nil for in-memory and follower pipelines.
func (p *Pipeline) Durable() *shard.Durable {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.durable
}

// Store returns the one store of a durable 1-shard leader, or nil.
func (p *Pipeline) Store() *store.Store {
	if d := p.Durable(); d != nil && len(d.Stores()) == 1 {
		return d.Stores()[0]
	}
	return nil
}

// RecoveryInfo returns what the durable open recovered (nil in memory).
func (p *Pipeline) RecoveryInfo() *store.RecoveryInfo {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.recovery
}

// --- Follower (read replica) ---

// OpenShardedFollower opens a leader's data directory read-only: it
// loads every shard's newest shipped snapshot, tails the WAL once to
// catch up, and returns a serving-ready read replica. Poll (or
// StartTailing) keeps it converging while the leader feeds.
func OpenShardedFollower(cfg Config, dataDir string, shards int) (*Pipeline, error) {
	return OpenShardedFollowerFS(cfg, dataDir, shards, store.OS())
}

// OpenShardedFollowerFS is OpenShardedFollower over an explicit
// filesystem.
func OpenShardedFollowerFS(cfg Config, dataDir string, shards int, fsys store.FS) (*Pipeline, error) {
	cfg = normalizeConfig(cfg)
	fp := configFingerprint(cfg)
	if err := checkLayout(fsys, dataDir, shards); err != nil {
		return nil, err
	}
	p, err := newShell(cfg, shards)
	if err != nil {
		return nil, err
	}
	f := shard.NewFollower(p.Cluster, fsys, dataDir)
	states, err := f.Bootstrap()
	if err != nil {
		return nil, err
	}
	for i, state := range states {
		if state == nil {
			return nil, fmt.Errorf("core: shard %d has no snapshot yet — start the leader first (it publishes the baseline at boot)", i)
		}
		if err := checkFingerprint(i, shards, state.Fingerprint, fp); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	if err := p.adoptOntology(states[0].Onto); err != nil {
		return nil, err
	}
	p.follower = f
	// Catch up past the snapshots before first serve.
	if _, err := f.Poll(); err != nil {
		return nil, err
	}
	return p, nil
}

// Poll advances a follower one catch-up round and flushes the answer
// cache when anything applied. Returns records applied.
func (p *Pipeline) Poll() (int, error) {
	p.mu.Lock()
	f := p.follower
	eng := p.eng
	p.mu.Unlock()
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
func (p *Pipeline) StartTailing(interval time.Duration, onErr func(error)) (stop func()) {
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
				if _, err := p.Poll(); err != nil && onErr != nil {
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
func (p *Pipeline) ReplicaStats() []shard.FollowerStat {
	p.mu.Lock()
	f := p.follower
	p.mu.Unlock()
	if f == nil {
		return nil
	}
	return f.Stats()
}
