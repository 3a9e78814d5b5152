package engine

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"dwqa/internal/obs"
	"dwqa/internal/store"
)

// The durability side of the serving engine: snapshotting the live stack
// through internal/store without stalling the ask path.
//
// Consistency discipline: every warehouse feed commits under commitMu
// (see HarvestAll), and SnapshotTo exports the full state under the same
// mutex — so a snapshot never observes half a feed, and its WALSeq stamp
// (read under the lock) is exactly the log position the exported state
// corresponds to. Ask/AskAll never take commitMu: queries proceed under
// the structures' own read locks while a snapshot exports, so background
// snapshotting does not block serving. The only path a snapshot can stall
// is a concurrent feed commit, and only for the in-memory export — the
// disk write happens after commitMu is released.

// SnapshotSource exports the full persistent state of the stack the
// engine serves. core.Pipeline implements it.
type SnapshotSource interface {
	// ExportState copies the warehouse, index and ontology state. The
	// engine calls it with feeds quiesced (under commitMu) and stamps the
	// returned State with the current WAL sequence.
	ExportState() (*store.State, error)
	// StateCounts returns the warehouse sizing (dimension members, fact
	// rows) for the serving stats.
	StateCounts() (members, factRows int)
}

// Snapshotter generalises the engine's persistence beyond the single
// (SnapshotSource, *store.Store) pair: a sharded cluster persists N
// per-shard stores and must export every shard's state under the same
// feed quiescence, then write N snapshot files outside it. The split
// into capture and publish mirrors SnapshotTo's own discipline: the
// in-memory export happens under commitMu (feeds quiesced, asks never
// blocked), the disk writes after it is released.
type Snapshotter interface {
	// ExportForSnapshot captures the full state — called with the
	// engine's feed commits quiesced — and returns a publish closure
	// that writes it out, called unlocked. For a multi-store
	// implementation the returned SnapshotInfo aggregates (path = the
	// root directory, bytes summed, WALSeq = the highest shard's).
	ExportForSnapshot() (publish func() (store.SnapshotInfo, error), err error)
	// Seq returns the highest WAL sequence across the stores.
	Seq() uint64
	// WALErrors returns the total journal appends refused by the stores.
	WALErrors() uint64
	// StateCounts returns the served warehouse sizing (members, fact
	// rows) for the stats, like SnapshotSource.StateCounts.
	StateCounts() (members, factRows int)
}

// SetDurability wires the persistence layer into the engine: src exports
// state for SnapshotTo, st is the store snapshots go to, and recovery
// (may be nil) is surfaced through Stats so operators can see what boot
// replayed.
func (e *Engine) SetDurability(src SnapshotSource, st *store.Store, recovery *store.RecoveryInfo) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.snapSource = src
	e.store = st
	e.recovery = recovery
}

// SetSnapshotter wires a generalised persistence implementation (see
// Snapshotter) in place of the SnapshotSource/store pair. recovery (may
// be nil) is surfaced through Stats like SetDurability's.
func (e *Engine) SetSnapshotter(s Snapshotter, recovery *store.RecoveryInfo) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.snapshotter = s
	e.recovery = recovery
}

// getSnapshotter returns the wired Snapshotter (nil when the engine
// uses the plain SnapshotSource/store pair or is not durable).
func (e *Engine) getSnapshotter() Snapshotter {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.snapshotter
}

// durability returns the wired persistence handles.
func (e *Engine) durability() (SnapshotSource, *store.Store, *store.RecoveryInfo) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.snapSource, e.store, e.recovery
}

// Snapshot publish retry policy: the write is all-or-nothing (temp file
// + rename), so a failed attempt leaves nothing behind and retrying is
// always safe. Transient disk conditions (a slow fsync, a momentary
// ENOSPC) get snapshotRetries attempts with exponential backoff and
// full jitter; a persistently failing disk still surfaces the error to
// the caller (and SnapshotEvery's onErr) after the last attempt.
// Variables, not constants, so the fault-injection tests can tighten
// the schedule.
var (
	snapshotRetries = 3
	snapshotBackoff = 25 * time.Millisecond
)

// SnapshotTo exports the engine's full state and publishes it as a
// snapshot, pruning old ones and resetting the WAL when the snapshot
// covers it. Feeds are quiesced only for the in-memory export; the disk
// write runs unlocked and Ask is never blocked at all. Publish failures
// are retried with backoff (see above); the state is exported once and
// every attempt writes the same bytes.
func (e *Engine) SnapshotTo() (store.SnapshotInfo, error) {
	var publish func() (store.SnapshotInfo, error)
	if snap := e.getSnapshotter(); snap != nil {
		e.commitMu.Lock()
		p, err := snap.ExportForSnapshot()
		e.commitMu.Unlock()
		if err != nil {
			return store.SnapshotInfo{}, fmt.Errorf("engine: exporting state: %w", err)
		}
		publish = p
	} else {
		src, st, _ := e.durability()
		if src == nil || st == nil {
			return store.SnapshotInfo{}, fmt.Errorf("engine: no durability configured (SetDurability)")
		}
		e.commitMu.Lock()
		state, err := src.ExportState()
		if err == nil {
			state.WALSeq = st.Seq()
		}
		e.commitMu.Unlock()
		if err != nil {
			return store.SnapshotInfo{}, fmt.Errorf("engine: exporting state: %w", err)
		}
		publish = func() (store.SnapshotInfo, error) { return st.WriteSnapshot(state) }
	}
	var info store.SnapshotInfo
	var err error
	publishStart := time.Now()
	backoff := snapshotBackoff
	for attempt := 1; ; attempt++ {
		info, err = publish()
		if err == nil {
			break
		}
		if attempt >= snapshotRetries {
			return store.SnapshotInfo{}, fmt.Errorf("engine: snapshot publish failed after %d attempts: %w", attempt, err)
		}
		// Full jitter: sleep a uniform slice of the doubling window so
		// concurrent retriers (multiple engines on one disk) decorrelate.
		time.Sleep(time.Duration(rand.Int63n(int64(backoff)) + 1))
		backoff *= 2
	}
	// The publish duration (retries and their backoff included — that is
	// what the operator waits for) and the snapshot size land in the
	// registry alongside the request stages.
	e.met.tracer.StageHistogram(obs.StageSnapshotPublish).Observe(time.Since(publishStart))
	e.met.snapshotBytes.Set(info.Bytes)
	e.lastSnapshot.Store(time.Now().UnixNano())
	return info, nil
}

// SnapshotEvery snapshots in the background at the given interval until
// the returned stop function is called (stop is idempotent and waits for
// an in-flight snapshot to finish). Errors go to onErr (may be nil).
func (e *Engine) SnapshotEvery(interval time.Duration, onErr func(error)) (stop func()) {
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
				if _, err := e.SnapshotTo(); err != nil && onErr != nil {
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
