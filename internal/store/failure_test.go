package store

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"dwqa/internal/dw"
	"dwqa/internal/ir"
)

// The failure-mode suite: every way a data directory can be damaged must
// either fail loudly or recover cleanly — never half-load.

func writeTestSnapshot(t *testing.T, s *Store, walSeq uint64) string {
	t.Helper()
	state := buildTestState(t)
	state.WALSeq = walSeq
	info, err := s.WriteSnapshot(state)
	if err != nil {
		t.Fatal(err)
	}
	return info.Path
}

// walBackedSnapshots logs three documents and publishes snapshots at
// walSeq 1 and 2 — both stale relative to the log head, so neither
// resets the WAL and the log keeps covering every record. Returns the
// two snapshot paths.
func walBackedSnapshots(t *testing.T, s *Store) (old, newest string) {
	t.Helper()
	for i := 0; i < 3; i++ {
		if err := s.LogDocuments([]ir.Document{ir.Document{URL: "u", Text: "Some text."}}); err != nil {
			t.Fatal(err)
		}
	}
	old = writeTestSnapshot(t, s, 1)
	newest = writeTestSnapshot(t, s, 2)
	return old, newest
}

func TestTruncatedSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	old, newest := walBackedSnapshots(t, s)

	// Simulate a newest snapshot that lost its tail (e.g. disk full).
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	state, path, err := s.LoadSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if path != old || state.WALSeq != 1 {
		t.Fatalf("expected fallback to %s, got %s (seq %d)", old, path, state.WALSeq)
	}
	// The WAL still covers everything past the fallback: replay closes
	// the gap the corrupt snapshot left.
	n, err := s.Replay(state.WALSeq, ReplayHandlers{Documents: func([]ir.Document) error { return nil }})
	if err != nil || n != 2 {
		t.Fatalf("gap replay: n=%d err=%v", n, err)
	}
}

func TestChecksumMismatchFallsBack(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	old, newest := walBackedSnapshots(t, s)

	// Flip one byte in the middle of the newest snapshot.
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}

	state, path, err := s.LoadSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if path != old {
		t.Fatalf("expected fallback to %s, got %s", old, path)
	}
	if state == nil || state.WALSeq != 1 {
		t.Fatal("fallback snapshot not loaded")
	}
}

// TestFallbackRefusesToLoseAckedRecords pins the double-failure window:
// a snapshot covered the log and reset it, then went unreadable. Falling
// back to the older snapshot would silently drop the acked batches the
// reset removed, so LoadSnapshot must fail loudly instead.
func TestFallbackRefusesToLoseAckedRecords(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.LogDocuments([]ir.Document{ir.Document{URL: "u1", Text: "First text."}}); err != nil {
		t.Fatal(err)
	}
	writeTestSnapshot(t, s, 1) // stale: keeps the WAL
	if err := s.LogDocuments([]ir.Document{ir.Document{URL: "u2", Text: "Second text."}}); err != nil {
		t.Fatal(err)
	}
	state := buildTestState(t)
	state.WALSeq = s.Seq()
	info, err := s.WriteSnapshot(state) // covers the log: resets it
	if err != nil {
		t.Fatal(err)
	}
	if !info.WALReset {
		t.Fatal("covering snapshot did not reset the WAL")
	}
	data, err := os.ReadFile(info.Path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(info.Path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, _, err := s.LoadSnapshot(); err == nil {
		t.Fatal("fallback silently dropped acked feed batches")
	} else if !strings.Contains(err.Error(), "would lose acked feed batches") {
		t.Fatalf("unhelpful loss error: %v", err)
	}
}

func TestAllSnapshotsCorruptFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	p1 := writeTestSnapshot(t, s, 1)
	p2 := writeTestSnapshot(t, s, 2)
	for _, p := range []string{p1, p2} {
		if err := os.WriteFile(p, []byte("garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := s.LoadSnapshot(); err == nil {
		t.Fatal("two corrupt snapshots loaded without error")
	} else if !strings.Contains(err.Error(), "no readable snapshot") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

func TestFutureSchemaVersionRejected(t *testing.T) {
	state := buildTestState(t)
	data := EncodeState(state)

	// Rewrite the version varint (right after the magic) to a future one,
	// then re-checksum so only the version gate can reject it.
	var future []byte
	future = append(future, data[:len(snapshotMagic)]...)
	future = binary.AppendUvarint(future, SchemaVersion+41)
	_, n := binary.Uvarint(data[len(snapshotMagic):])
	future = append(future, data[len(snapshotMagic)+n:len(data)-4]...)
	future = appendCRC(future)

	_, err := DecodeState(future)
	if err == nil {
		t.Fatal("future-version snapshot decoded")
	}
	if !strings.Contains(err.Error(), "newer than supported") {
		t.Fatalf("unhelpful version error: %v", err)
	}

	// And through the directory path: the future file must not half-load
	// or shadow the absence of valid snapshots.
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := os.WriteFile(filepath.Join(dir, snapshotPrefix+"00000000000000000009"+snapshotSuffix), future, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.LoadSnapshot(); err == nil || !strings.Contains(err.Error(), "newer than supported") {
		t.Fatalf("future-version snapshot not rejected loudly: %v", err)
	}
}

// TestOldSchemaVersionRejected pins that a pre-v3 snapshot (fixed-width
// postings, no section table) fails loudly, naming both versions,
// instead of being misread as the current layout.
func TestOldSchemaVersionRejected(t *testing.T) {
	data := EncodeState(buildTestState(t))
	var old []byte
	old = append(old, data[:len(snapshotMagic)]...)
	old = binary.AppendUvarint(old, 2)
	_, n := binary.Uvarint(data[len(snapshotMagic):])
	old = append(old, data[len(snapshotMagic)+n:len(data)-4]...)
	old = appendCRC(old)

	_, err := DecodeState(old)
	if err == nil {
		t.Fatal("v2 snapshot decoded")
	}
	want := "schema v2 is older than supported v" + strconv.Itoa(SchemaVersion)
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("version error %q does not name both versions (want %q)", err, want)
	}
}

func TestTornWALFinalRecord(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LogDocuments([]ir.Document{ir.Document{URL: "u1", Text: "First document text."}}); err != nil {
		t.Fatal(err)
	}
	if err := s.LogDocuments([]ir.Document{ir.Document{URL: "u2", Text: "Second document text."}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the final record mid-payload.
	walPath := filepath.Join(dir, walName)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	// Reopen: the torn tail is dropped, the first record survives, and
	// appending continues from the repaired end.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.WALRepaired() == 0 {
		t.Fatal("torn tail not reported")
	}
	if s2.Seq() != 1 {
		t.Fatalf("seq after repair = %d, want 1", s2.Seq())
	}
	var urls []string
	n, err := s2.Replay(0, replayURLs(&urls))
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || len(urls) != 1 || urls[0] != "u1" {
		t.Fatalf("replay after repair: n=%d urls=%v", n, urls)
	}
	if err := s2.LogDocuments([]ir.Document{ir.Document{URL: "u3", Text: "Third document text."}}); err != nil {
		t.Fatal(err)
	}
	urls = nil
	if _, err := s2.Replay(0, replayURLs(&urls)); err != nil {
		t.Fatal(err)
	}
	if len(urls) != 2 || urls[1] != "u3" {
		t.Fatalf("append after repair: %v", urls)
	}
}

func TestWALGarbageMidFileTruncates(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LogBatch([]dw.MemberSpec{{Dim: "City", Level: "Country", Name: "Spain"}}, "", nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, walName)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// A valid record followed by garbage: replay keeps the record, drops
	// the garbage, and the file is repaired in place.
	if err := os.WriteFile(walPath, append(data, []byte("!!!! not a record !!!!")...), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	n, err := s2.Replay(0, ReplayHandlers{Batch: func([]dw.MemberSpec, string, []dw.FactRow) error { return nil }})
	if err != nil || n != 1 {
		t.Fatalf("replay: n=%d err=%v", n, err)
	}
	if repaired, _ := os.ReadFile(walPath); len(repaired) != len(data) {
		t.Fatalf("WAL not repaired in place: %d bytes, want %d", len(repaired), len(data))
	}
}

func TestEmptyDataDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "fresh", "nested")
	s, err := Open(dir) // creates the directory tree
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if state, path, err := s.LoadSnapshot(); err != nil || state != nil || path != "" {
		t.Fatalf("empty dir: state=%v path=%q err=%v", state, path, err)
	}
	if n, err := s.Replay(0, ReplayHandlers{}); err != nil || n != 0 {
		t.Fatalf("empty dir replay: n=%d err=%v", n, err)
	}
	if s.Seq() != 0 {
		t.Fatalf("empty dir seq = %d", s.Seq())
	}
}

func TestReplayAfterStaleSnapshotSkipsCoveredRecords(t *testing.T) {
	// The crash window the sequence gate exists for: snapshot published,
	// WAL reset failed (simulated here by writing the snapshot with a
	// stale WALSeq so the store keeps the log). Replay must apply only
	// the uncovered tail.
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i, url := range []string{"u1", "u2", "u3"} {
		if err := s.LogDocuments([]ir.Document{ir.Document{URL: url, Text: "Document number " + string(rune('1'+i)) + " text."}}); err != nil {
			t.Fatal(err)
		}
	}
	state := buildTestState(t)
	state.WALSeq = 2 // pretend the snapshot was exported before u3
	if _, err := s.WriteSnapshot(state); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := s.LoadSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	var urls []string
	n, err := s.Replay(loaded.WALSeq, replayURLs(&urls))
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || len(urls) != 1 || urls[0] != "u3" {
		t.Fatalf("covered records re-applied: n=%d urls=%v", n, urls)
	}
}
