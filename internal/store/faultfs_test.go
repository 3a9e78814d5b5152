package store

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"dwqa/internal/dw"
)

// testRow is one valid fact row for the test schema.
func testRow(day string) dw.FactRow {
	return dw.FactRow{
		Coords:     map[string]string{"City": "Barcelona", "Date": day},
		Measures:   map[string]float64{"TempC": 13.5},
		Provenance: "http://w/bcn",
	}
}

// openFaultStore opens a store over a fresh FaultFS in a temp dir.
func openFaultStore(t *testing.T) (*Store, *FaultFS) {
	t.Helper()
	ffs := NewFaultFS(OS())
	s, err := OpenFS(t.TempDir(), ffs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, ffs
}

// TestFaultWALSyncFailure: a failed fsync on a WAL append must surface as
// ErrWAL, leave no record behind (the ack contract), bump the error
// counter, and let the next append succeed once the disk recovers.
func TestFaultWALSyncFailure(t *testing.T) {
	s, ffs := openFaultStore(t)
	ffs.Arm(Fault{Op: OpSync, Nth: 1})

	err := s.LogBatch(nil, "Weather", []dw.FactRow{testRow("2004-01-01")})
	if !errors.Is(err, ErrWAL) {
		t.Fatalf("err = %v, want ErrWAL", err)
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, should wrap the injected fault", err)
	}
	if s.WALErrors() != 1 {
		t.Errorf("WALErrors = %d, want 1", s.WALErrors())
	}
	if s.Seq() != 0 {
		t.Errorf("seq = %d after failed append, want 0 (rolled back)", s.Seq())
	}

	ffs.Disarm()
	if err := s.LogBatch(nil, "Weather", []dw.FactRow{testRow("2004-01-02")}); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
	if s.Seq() != 1 {
		t.Errorf("seq = %d, want 1", s.Seq())
	}

	// Replay sees exactly the acked record.
	var got []string
	_, err = s.Replay(0, ReplayHandlers{Batch: func(_ []dw.MemberSpec, fact string, rows []dw.FactRow) error {
		for _, r := range rows {
			got = append(got, r.Coords["Date"])
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []string{"2004-01-02"}) {
		t.Errorf("replayed rows = %v, want only the acked append", got)
	}
}

// TestFaultWALShortWrite: a torn write followed by a working rollback
// leaves a clean log; the appended-then-failed bytes never reach replay.
func TestFaultWALShortWrite(t *testing.T) {
	s, ffs := openFaultStore(t)
	ffs.Arm(Fault{Op: OpWrite, Nth: 1, Short: 5})

	if err := s.LogBatch(nil, "Weather", []dw.FactRow{testRow("2004-01-01")}); !errors.Is(err, ErrWAL) {
		t.Fatalf("err = %v, want ErrWAL", err)
	}
	ffs.Disarm()
	if err := s.LogBatch(nil, "Weather", []dw.FactRow{testRow("2004-01-02")}); err != nil {
		t.Fatal(err)
	}
	applied, err := s.Replay(0, ReplayHandlers{Batch: func([]dw.MemberSpec, string, []dw.FactRow) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	if applied != 1 {
		t.Errorf("replayed %d records, want 1", applied)
	}
}

// TestFaultWALShortWritePoisonedHandle: when the rollback truncate fails
// too, the handle is poisoned (further appends refuse), and a reopen
// repairs the torn tail so acked history survives.
func TestFaultWALShortWritePoisonedHandle(t *testing.T) {
	ffs := NewFaultFS(OS())
	dir := t.TempDir()
	s, err := OpenFS(dir, ffs)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LogBatch(nil, "Weather", []dw.FactRow{testRow("2004-01-01")}); err != nil {
		t.Fatal(err)
	}
	ffs.Arm(
		Fault{Op: OpWrite, Nth: 1, Short: 3},
		Fault{Op: OpTruncate, Nth: 1},
	)
	if err := s.LogBatch(nil, "Weather", []dw.FactRow{testRow("2004-01-02")}); !errors.Is(err, ErrWAL) {
		t.Fatalf("err = %v, want ErrWAL", err)
	}
	// The handle is poisoned: even with the disk healthy again, appends
	// refuse rather than land after unknown bytes.
	ffs.Disarm()
	if err := s.LogBatch(nil, "Weather", []dw.FactRow{testRow("2004-01-03")}); !errors.Is(err, ErrWAL) {
		t.Fatalf("append on poisoned handle = %v, want ErrWAL", err)
	}
	s.Close()

	// Reopen: tail repair drops the torn bytes, the acked record remains.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.WALRepaired() == 0 {
		t.Error("reopen should have repaired the torn tail")
	}
	applied, err := s2.Replay(0, ReplayHandlers{Batch: func([]dw.MemberSpec, string, []dw.FactRow) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	if applied != 1 {
		t.Errorf("replayed %d records, want 1 (the acked one)", applied)
	}
	if err := s2.LogBatch(nil, "Weather", []dw.FactRow{testRow("2004-01-04")}); err != nil {
		t.Fatalf("append after repair: %v", err)
	}
}

// TestFaultSnapshotPublish: rename and fsync failures during snapshot
// publish fail the write loudly without corrupting the directory — the
// next attempt (the engine's retry) succeeds and recovery reads it.
func TestFaultSnapshotPublish(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fault Fault
	}{
		{"rename refused", Fault{Op: OpRename, Nth: 1}},
		{"temp write torn", Fault{Op: OpWrite, Nth: 1, Short: 10}},
		{"temp fsync failed", Fault{Op: OpSync, Nth: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ffs := openFaultStore(t)
			state := buildTestState(t)
			ffs.Arm(tc.fault)
			if _, err := s.WriteSnapshot(state); err == nil {
				t.Fatal("faulted snapshot write should fail")
			}
			ffs.Disarm()
			info, err := s.WriteSnapshot(state)
			if err != nil {
				t.Fatalf("retry after fault: %v", err)
			}
			loaded, path, err := s.LoadSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			if loaded == nil || path != info.Path {
				t.Fatalf("loaded %q, want the retried snapshot %q", path, info.Path)
			}
		})
	}
}

// TestFaultDelayOnly: a delay-only fault slows the op without failing it.
func TestFaultDelayOnly(t *testing.T) {
	s, ffs := openFaultStore(t)
	ffs.Arm(Fault{Op: OpSync, Nth: 1, Delay: 10 * time.Millisecond})
	start := time.Now()
	if err := s.LogBatch(nil, "Weather", []dw.FactRow{testRow("2004-01-01")}); err != nil {
		t.Fatalf("delay-only fault must not fail the append: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 10*time.Millisecond {
		t.Errorf("append took %v, want ≥ the scheduled 10ms delay", elapsed)
	}
	if ffs.Fired() != 1 {
		t.Errorf("fired = %d, want 1", ffs.Fired())
	}
}

// TestRandomScheduleDeterministic: the same seed yields the same
// schedule — what makes a failing chaos run replayable.
func TestRandomScheduleDeterministic(t *testing.T) {
	a := RandomSchedule(42, 100, 0.1)
	b := RandomSchedule(42, 100, 0.1)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	if len(a) == 0 {
		t.Fatal("p=0.1 over 300 ops should schedule at least one fault")
	}
	c := RandomSchedule(43, 100, 0.1)
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical schedules")
	}
}

// TestFaultFSOpClasses drives every schedulable operation class through
// its fault branch directly — the chaos schedules only cover
// write/sync/rename, and the open/read/remove classes must inject just
// as reliably when a test arms them.
func TestFaultFSOpClasses(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OS())
	custom := errors.New("disk on fire")
	ffs.Arm(
		Fault{Op: OpOpen, Nth: 1},
		Fault{Op: OpOpen, Nth: 2, Err: custom},
		Fault{Op: OpRead, Nth: 1},
		Fault{Op: OpRemove, Nth: 1},
		Fault{Op: OpSync, Nth: 1}, // SyncDir shares the sync class
	)
	if _, err := ffs.OpenFile(filepath.Join(dir, "a"), os.O_CREATE|os.O_RDWR, 0o644); !errors.Is(err, ErrInjected) {
		t.Fatalf("OpenFile fault = %v, want ErrInjected", err)
	}
	if _, err := ffs.CreateTemp(dir, "tmp-*"); !errors.Is(err, custom) {
		t.Fatalf("CreateTemp fault = %v, want the scheduled custom error", err)
	}
	if _, err := ffs.ReadFile(filepath.Join(dir, "missing")); !errors.Is(err, ErrInjected) {
		t.Fatalf("ReadFile fault = %v, want ErrInjected", err)
	}
	if err := ffs.Remove(filepath.Join(dir, "missing")); !errors.Is(err, ErrInjected) {
		t.Fatalf("Remove fault = %v, want ErrInjected", err)
	}
	if err := ffs.SyncDir(dir); !errors.Is(err, ErrInjected) {
		t.Fatalf("SyncDir fault = %v, want ErrInjected", err)
	}
	if got := ffs.Fired(); got != 5 {
		t.Fatalf("Fired = %d, want 5", got)
	}
	// Past the schedule the classes behave normally again.
	f, err := ffs.OpenFile(filepath.Join(dir, "b"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if data, err := ffs.ReadFile(filepath.Join(dir, "b")); err != nil || string(data) != "ok" {
		t.Fatalf("ReadFile after schedule = %q, %v", data, err)
	}
	if err := ffs.Remove(filepath.Join(dir, "b")); err != nil {
		t.Fatal(err)
	}
	if got := ffs.OpCount(OpOpen); got != 3 {
		t.Fatalf("OpCount(OpOpen) = %d, want 3", got)
	}
	// Every class names itself in error messages.
	for op := FaultOp(0); op < numFaultOps; op++ {
		if s := op.String(); s == "" || strings.HasPrefix(s, "op(") {
			t.Fatalf("FaultOp(%d).String() = %q, want a name", op, s)
		}
	}
	if s := numFaultOps.String(); !strings.HasPrefix(s, "op(") {
		t.Fatalf("out-of-range String() = %q, want op(N) fallback", s)
	}
}
