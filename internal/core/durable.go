package core

import (
	"fmt"

	"dwqa/internal/dw"
	"dwqa/internal/etl"
	"dwqa/internal/ir"
	"dwqa/internal/ontology"
	"dwqa/internal/store"
	"dwqa/internal/webcorpus"
	"dwqa/internal/wordnet"
)

// The durable pipeline: OpenPipeline boots from a data directory,
// recovering the warehouse, index and ontology from the newest valid
// snapshot plus the WAL tail — or building them fresh on first boot —
// and attaches the journals so every subsequent feed is persisted.
//
// Recovery invariants (tested by recovery_test.go):
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

// OpenPipeline opens dataDir and returns a serving-ready pipeline
// (steps 1-4 complete). With a usable snapshot in the directory the
// pipeline is recovered — warehouse, index and ontology restored, WAL
// tail replayed, loader dedup rebuilt. Otherwise the scenario pipeline is
// built fresh, integrated through Step 4 and published as the initial
// snapshot. Either way the store's journals are attached before return,
// so every later feed (Step5FeedWarehouse, /harvest) lands in the WAL,
// and the engine is wired for SnapshotTo/background snapshots.
//
// The caller owns the store lifecycle: close the pipeline's Store (see
// Pipeline.Store) when done, ideally after a final Engine().SnapshotTo().
func OpenPipeline(cfg Config, dataDir string) (*Pipeline, *store.RecoveryInfo, error) {
	return OpenPipelineFS(cfg, dataDir, store.OS())
}

// OpenPipelineFS is OpenPipeline over an explicit filesystem — the seam
// the chaos tests use to boot a durable pipeline on a fault-injecting
// store.FaultFS and drive it through scheduled disk failures.
func OpenPipelineFS(cfg Config, dataDir string, fsys store.FS) (*Pipeline, *store.RecoveryInfo, error) {
	st, err := store.OpenFS(dataDir, fsys)
	if err != nil {
		return nil, nil, err
	}
	p, info, err := openWithStore(cfg, st)
	if err != nil {
		st.Close()
		return nil, nil, err
	}
	return p, info, nil
}

func openWithStore(cfg Config, st *store.Store) (*Pipeline, *store.RecoveryInfo, error) {
	state, path, err := st.LoadSnapshot()
	if err != nil {
		return nil, nil, fmt.Errorf("core: %w", err)
	}
	info := &store.RecoveryInfo{WALRepaired: st.WALRepaired()}
	var p *Pipeline
	if state != nil {
		info.Recovered = true
		info.SnapshotPath = path
		info.SnapshotSeq = state.WALSeq
		p, err = recoverPipeline(cfg, state)
		if err != nil {
			return nil, nil, err
		}
	} else {
		// First boot (or a directory holding only a WAL from a run that
		// crashed before its first snapshot): build the deterministic
		// baseline the WAL records were logged against.
		p, err = NewPipeline(cfg)
		if err != nil {
			return nil, nil, err
		}
		if err := p.integrateToStep4(); err != nil {
			return nil, nil, err
		}
	}

	// Replay the WAL tail on top (snapshot-covered records are skipped by
	// the sequence gate; on a fresh boot afterSeq is 0 and everything in
	// the log re-applies to the deterministic baseline).
	replayed, err := st.Replay(info.SnapshotSeq, store.ReplayHandlers{
		Members:  p.Warehouse.AddMembers,
		FactRows: func(fact string, rows []dw.FactRow) error { return p.Warehouse.AddFactRows(fact, rows) },
		Document: p.Index.Add,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("core: WAL replay: %w", err)
	}
	info.WALReplayed = replayed

	// The Step 5 loader must skip every record already in the warehouse
	// when a harvest re-runs after recovery.
	loader, err := etl.NewLoader(p.Ontology, p.Warehouse, "Weather", "City", "Date")
	if err != nil {
		return nil, nil, err
	}
	if _, err := loader.RestoreDedup(); err != nil {
		return nil, nil, err
	}
	p.mu.Lock()
	p.Loader = loader
	p.st = st
	p.recovery = info
	p.mu.Unlock()

	if !info.Recovered {
		// Publish the initial snapshot so the next boot restores instead
		// of rebuilding (it also absorbs any replayed orphan WAL).
		if err := p.writeInitialSnapshot(st); err != nil {
			return nil, nil, err
		}
	}

	// Journals attach last: everything before this point is either inside
	// the snapshot or already in the WAL; everything after gets logged.
	p.Warehouse.SetJournal(st)
	p.Index.SetJournal(st)
	return p, info, nil
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

// recoverPipeline rebuilds a pipeline around restored state: bulk-import
// the warehouse and index, adopt the ontology, rebuild the cheap derived
// pieces (corpus metadata, lexicon merge, QA tuning).
func recoverPipeline(cfg Config, state *store.State) (*Pipeline, error) {
	cfg = normalizeConfig(cfg)
	if state.Fingerprint != "" && state.Fingerprint != configFingerprint(cfg) {
		return nil, fmt.Errorf(
			"core: data directory was created with different scenario parameters (%s) than this boot (%s); restart with matching flags or a fresh data directory",
			state.Fingerprint, configFingerprint(cfg))
	}
	wh, index, onto, err := importState(state)
	if err != nil {
		return nil, err
	}

	// The corpus object itself is synthetic and cheap (page metadata, no
	// indexing); rebuild it — through the same derivation NewPipeline
	// uses — so WeatherQuestions and Summary keep working.
	corpus := webcorpus.Build(corpusConfig(cfg))

	p := &Pipeline{
		Config:    cfg,
		Schema:    wh.Schema(),
		Warehouse: wh,
		Corpus:    corpus,
		Index:     index,
		Lexicon:   wordnet.Seed(),
		Ontology:  onto,
	}
	// Steps 1-2 live inside the restored ontology; re-run the cheap
	// deterministic tail (Step 3 merges into the fresh lexicon, Step 4
	// re-tunes — axiom re-adds are no-ops on the restored ontology).
	p.step.Store(2)
	if err := p.Step3MergeUpperOntology(); err != nil {
		return nil, err
	}
	if err := p.Step4TuneQA(); err != nil {
		return nil, err
	}
	return p, nil
}

// RestoreState decodes an encoded snapshot and bulk-loads the warehouse,
// index and ontology it holds — the restore half of recovery, without the
// pipeline built around it.
func RestoreState(snapBytes []byte) (*dw.Warehouse, *ir.Index, *ontology.Ontology, error) {
	state, err := store.DecodeState(snapBytes)
	if err != nil {
		return nil, nil, nil, err
	}
	return importState(state)
}

// importState bulk-loads the warehouse, index and ontology of a decoded
// snapshot: columns, postings and analysed sentences are adopted as
// stored, nothing is re-analysed.
func importState(state *store.State) (*dw.Warehouse, *ir.Index, *ontology.Ontology, error) {
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

// integrateToStep4 runs the setup steps of the five-step model.
func (p *Pipeline) integrateToStep4() error {
	if err := p.Step1DeriveOntology(); err != nil {
		return err
	}
	if err := p.Step2FeedOntology(); err != nil {
		return err
	}
	if err := p.Step3MergeUpperOntology(); err != nil {
		return err
	}
	return p.Step4TuneQA()
}

// writeInitialSnapshot publishes the post-integration baseline.
func (p *Pipeline) writeInitialSnapshot(st *store.Store) error {
	state, err := p.ExportState()
	if err != nil {
		return err
	}
	state.WALSeq = st.Seq()
	if _, err := st.WriteSnapshot(state); err != nil {
		return err
	}
	return nil
}

// ExportState implements engine.SnapshotSource: a deep copy of the
// warehouse, index and ontology. The engine calls it with feed commits
// quiesced; callers driving feeds outside the engine must quiesce them
// themselves.
func (p *Pipeline) ExportState() (*store.State, error) {
	if p.Ontology == nil {
		return nil, fmt.Errorf("core: nothing to export before Step 1 (no ontology)")
	}
	return &store.State{
		Fingerprint: configFingerprint(p.Config),
		DW:          p.Warehouse.Export(),
		IR:          p.Index.Export(),
		Onto:        p.Ontology.Export(),
	}, nil
}

// StateCounts implements engine.SnapshotSource.
func (p *Pipeline) StateCounts() (members, factRows int) {
	return p.Warehouse.Counts()
}

// Store returns the durable store this pipeline was opened over, or nil
// for a purely in-memory pipeline.
func (p *Pipeline) Store() *store.Store {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.st
}

// RecoveryInfo returns what OpenPipeline recovered (nil for in-memory
// pipelines).
func (p *Pipeline) RecoveryInfo() *store.RecoveryInfo {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.recovery
}
