package shard

import (
	"errors"
	"fmt"
	"sync"

	"dwqa/internal/store"
)

// Read replicas: a follower opens the leader's newest per-shard
// snapshots, then tails each shard's WAL by sequence number, applying
// records the snapshot does not cover (store replay gates on
// seq > snapshot.WALSeq). The follower never writes to the leader's
// directory — torn WAL tails are observed and ignored, never repaired —
// and serves Ask traffic read-only while the single writer takes feeds.
//
// Catch-up protocol, per shard and per poll:
//
//  1. Tail the WAL from the applied sequence. Every record applies in
//     order to the live node through Cluster.ReplayHandlers, the handlers
//     leader boot replay uses.
//  2. If the log's first record is beyond applied+1, the leader
//     published a snapshot covering the gap and reset the log
//     (ErrReplicaGap): reload the newest snapshot, swap the shard's
//     node atomically under readers, and tail again from its WALSeq.
//  3. If the log is silent but a newer snapshot appeared (leader
//     snapshotted with no fresh feeds), reload it the same way.
//
// Staleness contract: a follower is eventually consistent with bounded
// lag — at most one poll interval plus the leader's in-flight feed;
// Stats reports per-shard (applied seq, lag vs the leader head observed
// this poll) so operators can see convergence.

// Follower tails one leader data directory into a cluster.
type Follower struct {
	c    *Cluster
	fs   store.FS
	root string

	mu      sync.Mutex
	applied []uint64 // per-shard WAL sequence applied to the live node
	head    []uint64 // per-shard leader head observed at the last poll
}

// FollowerStat is one shard's replication position.
type FollowerStat struct {
	Shard int
	Seq   uint64 // applied WAL sequence
	Lag   int64  // leader head observed at last poll minus applied
}

// NewFollower prepares a follower over the leader's root directory.
// Call Bootstrap before serving, then Poll on an interval.
func NewFollower(c *Cluster, fsys store.FS, root string) *Follower {
	if fsys == nil {
		fsys = store.OS()
	}
	return &Follower{
		c:       c,
		fs:      fsys,
		root:    root,
		applied: make([]uint64, c.Shards()),
		head:    make([]uint64, c.Shards()),
	}
}

// Bootstrap loads every shard's newest snapshot into the cluster and
// records the applied sequences. A shard directory with no snapshot
// yet loads as empty at sequence 0 — the WAL tail brings it up from
// nothing, exactly like leader boot replay. Returns each shard's
// snapshot state (nil entries for empty shards) so the caller can
// bootstrap schema-independent state (the ontology) from one of them.
func (f *Follower) Bootstrap() ([]*store.State, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	states := make([]*store.State, f.c.Shards())
	for i := 0; i < f.c.Shards(); i++ {
		state, _, err := store.ReadSnapshot(f.fs, ShardDir(f.root, i, f.c.Shards()))
		if err != nil {
			return nil, fmt.Errorf("follower shard %d: %w", i, err)
		}
		states[i] = state
		if state == nil {
			continue
		}
		if err := f.installLocked(i, state); err != nil {
			return nil, fmt.Errorf("follower shard %d: %w", i, err)
		}
	}
	return states, nil
}

// installLocked swaps in a node imported from a snapshot state. Caller
// holds f.mu.
func (f *Follower) installLocked(i int, state *store.State) error {
	if err := f.c.InstallState(i, state); err != nil {
		return err
	}
	f.applied[i] = state.WALSeq
	if state.WALSeq > f.head[i] {
		f.head[i] = state.WALSeq
	}
	return nil
}

// Poll advances every shard: tail new WAL records onto the live nodes,
// reloading from a newer snapshot when the log was reset underneath us.
// Returns the number of records applied across shards; the caller
// flushes derived caches (the engine's answer cache) when it is > 0.
func (f *Follower) Poll() (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	total := 0
	for i := 0; i < f.c.Shards(); i++ {
		n, err := f.pollShardLocked(i)
		total += n
		if err != nil {
			return total, fmt.Errorf("follower shard %d: %w", i, err)
		}
	}
	return total, nil
}

// pollShardLocked runs the catch-up protocol for one shard.
func (f *Follower) pollShardLocked(i int) (int, error) {
	dir := ShardDir(f.root, i, f.c.Shards())
	applied, newSeq, err := store.TailWAL(f.fs, dir, f.applied[i], f.c.ReplayHandlers(i))
	if errors.Is(err, store.ErrReplicaGap) {
		n, rerr := f.reloadLocked(i)
		return n, rerr
	}
	if err != nil {
		return applied, err
	}
	f.applied[i] = newSeq
	if newSeq > f.head[i] {
		f.head[i] = newSeq
	}
	// A silent log can still hide progress: the leader may have
	// published a snapshot past our position and reset the WAL.
	if snapSeq, ok := store.SnapshotSeq(f.fs, dir); ok && snapSeq > f.applied[i] {
		n, rerr := f.reloadLocked(i)
		return applied + n, rerr
	}
	return applied, nil
}

// reloadLocked performs the full-reload arm of the protocol: newest
// snapshot in, node swapped, WAL tailed from the snapshot's sequence.
func (f *Follower) reloadLocked(i int) (int, error) {
	dir := ShardDir(f.root, i, f.c.Shards())
	state, _, err := store.ReadSnapshot(f.fs, dir)
	if err != nil {
		return 0, err
	}
	if state == nil {
		// A gap with no snapshot to bridge it: the leader's directory
		// lost history. Surface it — the replica cannot converge.
		return 0, fmt.Errorf("WAL gap beyond seq %d but no snapshot to reload", f.applied[i])
	}
	if err := f.installLocked(i, state); err != nil {
		return 0, err
	}
	applied, newSeq, err := store.TailWAL(f.fs, dir, f.applied[i], f.c.ReplayHandlers(i))
	if err != nil {
		return applied, err
	}
	f.applied[i] = newSeq
	if newSeq > f.head[i] {
		f.head[i] = newSeq
	}
	return applied, nil
}

// Stats reports each shard's applied sequence and observed lag.
func (f *Follower) Stats() []FollowerStat {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]FollowerStat, f.c.Shards())
	for i := range out {
		out[i] = FollowerStat{Shard: i, Seq: f.applied[i], Lag: int64(f.head[i]) - int64(f.applied[i])}
	}
	return out
}
