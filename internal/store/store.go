// Package store is the durability subsystem of the reproduction: it
// persists the engine stack's state — the columnar warehouse, the
// interned passage index and the merged ontology — across restarts, so
// everything Step 5 ever harvested survives the process (DESIGN.md §7).
//
// Two cooperating mechanisms:
//
//   - Snapshots: point-in-time copies of the full State, written
//     atomically (temp file + rename), checksummed and versioned
//     (snapshot.go). The newest valid snapshot wins; a corrupt one is
//     skipped in favour of its predecessor.
//   - Write-ahead log: every committed batch — a dw.Warehouse.AddBatch
//     transaction or an ir.Index.AddBatch document batch, the one write
//     of each layer — is appended as a checksummed record with a
//     strictly increasing sequence number (wal.go). The store
//     implements dw.Journal and ir.Journal, so attaching it to a
//     warehouse and an index journals every commit automatically.
//
// Recovery = load newest valid snapshot + Replay the WAL tail: records
// with seq ≤ the snapshot's WALSeq are skipped (they are already inside
// the snapshot), which makes re-applying the log idempotent by
// construction — a crash between "snapshot published" and "WAL reset"
// double-applies nothing. A torn or corrupt record ends the log: replay
// truncates there and the system resumes from the repaired tail.
package store

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dwqa/internal/dw"
	"dwqa/internal/ir"
	"dwqa/internal/obs"
)

// ErrWAL marks a write-ahead-log append failure: the feed batch that
// triggered it was NOT committed (the warehouse logs before it applies),
// but the log can no longer be trusted to ack further feeds. The serving
// engine tests for it with errors.Is and flips into degraded read-only
// mode rather than silently serving non-durable writes.
var ErrWAL = errors.New("store: WAL append failed")

const (
	walName        = "wal.log"
	snapshotPrefix = "snap-"
	snapshotSuffix = ".dwqa"
	// snapshotsKept is how many published snapshots survive pruning: the
	// newest plus one fallback should the newest turn out unreadable.
	snapshotsKept = 2
)

// Store manages one data directory: published snapshots plus the live
// WAL. Safe for concurrent use; appends and snapshot writes serialise on
// an internal mutex, reads of Seq are cheap.
type Store struct {
	dir string
	fs  FS

	walErrors atomic.Uint64 // failed WAL appends over the store's lifetime

	mu          sync.Mutex
	wal         *wal
	walRepaired int64 // bytes dropped repairing a torn tail at Open
	closed      bool
	met         Metrics
}

// Metrics are the optional latency histograms the store observes on its
// write path. Nil histograms are skipped without a clock reading, so an
// unmetered store behaves exactly as before.
type Metrics struct {
	// Append times one whole WAL append — encode, write and fsync — as
	// seen by the committing feed batch.
	Append *obs.Histogram
	// Fsync times the fsync alone, the usual dominator of Append.
	Fsync *obs.Histogram
}

// SetMetrics attaches the write-path histograms. Safe to call while
// appends are in flight; the next append observes them.
func (s *Store) SetMetrics(m Metrics) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.met = m
	s.wal.fsync = m.Fsync
}

// Open opens (creating if needed) a data directory on the real
// filesystem, repairs the WAL tail if the last run tore it, and removes
// leftover temp files from interrupted snapshot writes.
func Open(dir string) (*Store, error) { return OpenFS(dir, OS()) }

// OpenFS is Open over an explicit filesystem — the seam the
// fault-injection tests use to schedule disk failures against the
// production write paths.
func OpenFS(dir string, fsys FS) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty data directory")
	}
	if fsys == nil {
		fsys = OS()
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if tmps, err := fsys.Glob(filepath.Join(dir, ".tmp-snap-*")); err == nil {
		for _, t := range tmps {
			_ = fsys.Remove(t)
		}
	}
	w, dropped, err := openWAL(fsys, filepath.Join(dir, walName))
	if err != nil {
		return nil, err
	}
	s := &Store{dir: dir, fs: fsys, wal: w, walRepaired: dropped}
	// The WAL's scan only knows sequence numbers that are still in the
	// log; a log reset by a snapshot restarts empty, so pick up the
	// sequence floor from the published snapshots. The floor comes from
	// the filenames (WriteSnapshot names each file by the WALSeq it
	// covers) — decoding a multi-megabyte snapshot just to read its
	// header would double every boot's restore cost.
	for _, p := range s.snapshotPaths() {
		if seq, ok := snapshotSeqFromPath(p); ok {
			if seq > w.seq {
				w.seq = seq
			}
			break // paths are sorted newest first
		}
	}
	return s, nil
}

// snapshotSeqFromPath parses the WAL sequence a snapshot file name
// declares (snap-<seq>.dwqa).
func snapshotSeqFromPath(path string) (uint64, bool) {
	name := filepath.Base(path)
	name = strings.TrimPrefix(name, snapshotPrefix)
	name = strings.TrimSuffix(name, snapshotSuffix)
	seq, err := strconv.ParseUint(name, 10, 64)
	return seq, err == nil
}

// Dir returns the data directory.
func (s *Store) Dir() string { return s.dir }

// Seq returns the sequence number of the last WAL record (0 when none
// was ever written).
func (s *Store) Seq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wal.seq
}

// WALRepaired returns the number of torn-tail bytes Open dropped (0 for
// a clean shutdown).
func (s *Store) WALRepaired() int64 { return s.walRepaired }

// WALErrors returns how many WAL appends have failed over the store's
// lifetime — the /healthz wal_errors counter.
func (s *Store) WALErrors() uint64 { return s.walErrors.Load() }

// Close releases the WAL file handle. The store must not be used after.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return s.wal.close()
}

// --- journal (the write path) ---

// LogBatch implements dw.Journal: one recBatch record per combined
// member+fact-row transaction (dw.AddBatch), so replay re-applies the
// members and their rows as the unit they were committed as.
func (s *Store) LogBatch(specs []dw.MemberSpec, fact string, rows []dw.FactRow) error {
	return s.appendRecord(recBatch, encodeBatch(specs, fact, rows))
}

// LogDocuments implements ir.Journal: one recDocuments record (one
// fsync) per indexed document batch (ir.Index.AddBatch) — the record
// that makes streaming ingestion feasible, where fsync-per-document
// would dominate the load.
func (s *Store) LogDocuments(docs []ir.Document) error {
	return s.appendRecord(recDocuments, encodeDocuments(docs))
}

func (s *Store) appendRecord(kind byte, payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	var start time.Time
	if s.met.Append != nil {
		start = time.Now()
	}
	err := s.wal.append(kind, payload)
	if s.met.Append != nil {
		s.met.Append.Observe(time.Since(start))
	}
	if err != nil {
		s.walErrors.Add(1)
		return fmt.Errorf("%w: %w", ErrWAL, err)
	}
	return nil
}

// --- snapshots ---

// SnapshotInfo describes one published snapshot.
type SnapshotInfo struct {
	Path     string
	Bytes    int64
	WALSeq   uint64
	WALReset bool // the WAL was emptied because the snapshot covers it all
}

// WriteSnapshot publishes a snapshot of state atomically and prunes old
// snapshots. If no WAL record was appended since state was exported
// (state.WALSeq still current), the WAL is reset — every record is inside
// the snapshot. Otherwise the WAL is left alone: recovery's sequence
// gating skips the covered prefix anyway, so correctness never depends on
// the reset.
func (s *Store) WriteSnapshot(state *State) (SnapshotInfo, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return SnapshotInfo{}, fmt.Errorf("store: closed")
	}
	s.mu.Unlock()
	data := EncodeState(state)
	path := filepath.Join(s.dir, fmt.Sprintf("%s%020d%s", snapshotPrefix, state.WALSeq, snapshotSuffix))
	if err := writeSnapshotFile(s.fs, path, data); err != nil {
		return SnapshotInfo{}, err
	}
	info := SnapshotInfo{Path: path, Bytes: int64(len(data)), WALSeq: state.WALSeq}

	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed && s.wal.seq == state.WALSeq {
		if err := s.wal.reset(); err != nil {
			return info, err
		}
		info.WALReset = true
	}
	s.pruneLocked()
	return info, nil
}

// snapshotPaths returns the published snapshot files, newest first.
func (s *Store) snapshotPaths() []string {
	paths, _ := s.fs.Glob(filepath.Join(s.dir, snapshotPrefix+"*"+snapshotSuffix))
	sort.Sort(sort.Reverse(sort.StringSlice(paths)))
	return paths
}

func (s *Store) pruneLocked() {
	paths := s.snapshotPaths()
	for _, p := range paths[min(len(paths), snapshotsKept):] {
		_ = s.fs.Remove(p)
	}
}

// LoadSnapshot returns the newest valid snapshot, or (nil, "", nil) when
// the directory holds none. Corrupt snapshots are skipped in favour of
// older ones — but only when the WAL still covers every record between
// the fallback and the newest snapshot's sequence, because publishing a
// snapshot may have reset the log. A fallback that would silently drop
// acked feed batches is a loud error instead, as is a directory whose
// snapshots are all unreadable — recovery must never quietly lose data
// or start empty on a damaged directory.
func (s *Store) LoadSnapshot() (*State, string, error) {
	path, state, err := s.loadNewestSnapshot()
	return state, path, err
}

func (s *Store) loadNewestSnapshot() (string, *State, error) {
	paths := s.snapshotPaths()
	if len(paths) == 0 {
		return "", nil, nil
	}
	var failures []string
	for _, p := range paths {
		data, err := s.fs.ReadFile(p)
		if err != nil {
			failures = append(failures, fmt.Sprintf("%s: %v", filepath.Base(p), err))
			continue
		}
		state, err := DecodeState(data)
		if err != nil {
			failures = append(failures, fmt.Sprintf("%s: %v", filepath.Base(p), err))
			continue
		}
		if len(failures) > 0 {
			// A newer snapshot was skipped: records up to its sequence
			// were acked, and publishing it may have reset the WAL. Only
			// fall back when the log still holds the whole gap.
			if newestSeq, ok := snapshotSeqFromPath(paths[0]); ok && newestSeq > state.WALSeq {
				if err := s.walCovers(state.WALSeq, newestSeq); err != nil {
					return "", nil, fmt.Errorf(
						"store: newest snapshot is unreadable (%s) and falling back to %s would lose acked feed batches %d..%d: %w",
						strings.Join(failures, "; "), filepath.Base(p), state.WALSeq+1, newestSeq, err)
				}
			}
		}
		return p, state, nil
	}
	return "", nil, fmt.Errorf("store: no readable snapshot in %s: %s", s.dir, strings.Join(failures, "; "))
}

// walCovers reports whether the log still holds every record in
// (afterSeq, throughSeq] — sequence numbers are assigned consecutively
// and the log only ever empties wholesale, so the retained records form
// one contiguous range.
func (s *Store) walCovers(afterSeq, throughSeq uint64) error {
	data, err := s.fs.ReadFile(s.wal.path)
	if err != nil {
		return fmt.Errorf("reading WAL: %w", err)
	}
	_, _, records := scanWAL(data, 0)
	if len(records) == 0 {
		return fmt.Errorf("the WAL is empty (reset by the unreadable snapshot)")
	}
	first, last := records[0].seq, records[len(records)-1].seq
	if first > afterSeq+1 || last < throughSeq {
		return fmt.Errorf("the WAL holds records %d..%d", first, last)
	}
	return nil
}

// --- replay (the recovery path) ---

// ReplayHandlers applies decoded WAL records to live structures during
// recovery and replica tailing. Each handler is the one write that
// produced its record kind — dw.Warehouse.AddBatch for recBatch,
// ir.Index.AddBatch for recDocuments — so a replayed batch goes through
// the same validation and lands as the same single atomic commit.
type ReplayHandlers struct {
	Batch     func(specs []dw.MemberSpec, fact string, rows []dw.FactRow) error
	Documents func(docs []ir.Document) error
}

// Replay applies every WAL record with seq > afterSeq, in order, and
// returns how many were applied. Structural corruption (bad checksum,
// torn tail, sequence regression) ends the log: the file is truncated at
// the last good record and replay finishes cleanly — those bytes were
// never acked as durable beyond them. A handler error, by contrast,
// aborts recovery loudly: the log is intact but the state refuses it,
// which a fresh boot must surface, not paper over.
//
// Journals must be attached to the warehouse and index only after Replay,
// or every replayed batch would be logged again.
func (s *Store) Replay(afterSeq uint64, h ReplayHandlers) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, err := s.fs.ReadFile(s.wal.path)
	if err != nil {
		return 0, fmt.Errorf("store: reading WAL: %w", err)
	}
	valid, lastSeq, records := scanWAL(data, 0)
	if valid < len(data) && s.wal.f != nil {
		if err := s.wal.f.Truncate(int64(valid)); err != nil {
			return 0, fmt.Errorf("store: truncating corrupt WAL tail: %w", err)
		}
		if _, err := s.wal.f.Seek(int64(valid), 0); err != nil {
			return 0, fmt.Errorf("store: seeking WAL: %w", err)
		}
	}
	if lastSeq > s.wal.seq {
		s.wal.seq = lastSeq
	}
	applied := 0
	for _, rec := range records {
		if rec.seq <= afterSeq {
			continue // already inside the snapshot — idempotent skip
		}
		if err := applyRecord(rec, h); err != nil {
			return applied, err
		}
		applied++
	}
	return applied, nil
}

// applyRecord decodes one WAL record and dispatches it through the
// handlers — shared by leader recovery (Replay) and the read-only
// follower tail (TailWAL).
func applyRecord(rec walRecord, h ReplayHandlers) error {
	switch rec.kind {
	case recBatch:
		specs, fact, rows, err := decodeBatch(rec.payload)
		if err != nil {
			return fmt.Errorf("store: WAL record %d: %w", rec.seq, err)
		}
		if h.Batch == nil {
			return fmt.Errorf("store: WAL record %d: no batch handler", rec.seq)
		}
		if err := h.Batch(specs, fact, rows); err != nil {
			return fmt.Errorf("store: replaying batch (record %d): %w", rec.seq, err)
		}
	case recDocuments:
		docs, err := decodeDocuments(rec.payload)
		if err != nil {
			return fmt.Errorf("store: WAL record %d: %w", rec.seq, err)
		}
		if h.Documents == nil {
			return fmt.Errorf("store: WAL record %d: no document handler", rec.seq)
		}
		if err := h.Documents(docs); err != nil {
			return fmt.Errorf("store: replaying document batch (record %d): %w", rec.seq, err)
		}
	default:
		return fmt.Errorf("store: WAL record %d has unknown type %d", rec.seq, rec.kind)
	}
	return nil
}

// RecoveryInfo summarises one recovery for logs and the serving stats.
type RecoveryInfo struct {
	Recovered    bool   // a snapshot was found and loaded
	SnapshotPath string // which snapshot won
	SnapshotSeq  uint64 // the WAL sequence the snapshot covered
	WALReplayed  int    // records applied on top of it
	WALRepaired  int64  // torn-tail bytes dropped at Open
}
