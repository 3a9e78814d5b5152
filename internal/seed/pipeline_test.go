package seed_test

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"dwqa/internal/obs"
	"dwqa/internal/seed"
	"dwqa/internal/store"
)

// snapshotFiles returns the published snapshot images in dir by name.
func snapshotFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "snap-*"))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, p := range paths {
		buf, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(p)] = buf
	}
	return out
}

// TestSeederSnapshotsDeterministic pins that preparing batches ahead, on
// several goroutines, leaves no trace in what the run writes: two fresh
// runs of one config publish byte-identical snapshot files.
func TestSeederSnapshotsDeterministic(t *testing.T) {
	var runs []map[string][]byte
	for i := 0; i < 2; i++ {
		cfg := seed.Config{
			DataDir:  filepath.Join(t.TempDir(), "data"),
			Passages: 1200, BatchPages: 16, SnapshotEvery: 3, Seed: 42,
		}
		if _, err := seed.Run(cfg); err != nil {
			t.Fatal(err)
		}
		runs = append(runs, snapshotFiles(t, cfg.DataDir))
	}
	if len(runs[0]) == 0 {
		t.Fatal("the run published no snapshot")
	}
	if len(runs[0]) != len(runs[1]) {
		t.Fatalf("runs published %d and %d snapshots", len(runs[0]), len(runs[1]))
	}
	for name, want := range runs[0] {
		if got, ok := runs[1][name]; !ok || !bytes.Equal(got, want) {
			t.Errorf("snapshot %s differs between two runs of one config (%d vs %d bytes)", name, len(got), len(want))
		}
	}
}

// writeJSONL writes n corpus lines, replacing line bad (1-based; 0 =
// none) with one that does not decode.
func writeJSONL(t *testing.T, path string, n, bad int) {
	t.Helper()
	var b strings.Builder
	for i := 1; i <= n; i++ {
		if i == bad {
			b.WriteString(`{"url": not-json` + "\n")
			continue
		}
		fmt.Fprintf(&b, `{"url":"http://corpus.test/p%d","text":"In Testville the temperature was %d degrees.","records":[{"city":"testville","year":2004,"month":1,"day":%d,"temp_c":%d}]}`+"\n",
			i, i, i, i)
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSeederJSONLErrorAfterCommittedBatches pins where a stream error
// lands now that the next batch is read while the current one commits:
// a line that fails to decode in the third batch is reported after
// exactly the first two batches committed, as a serial loop would.
func TestSeederJSONLErrorAfterCommittedBatches(t *testing.T) {
	dir := t.TempDir()
	corpus := filepath.Join(dir, "corpus.jsonl")
	writeJSONL(t, corpus, 16, 11)
	cfg := seed.Config{DataDir: filepath.Join(dir, "data"), JSONL: corpus, BatchPages: 4, SnapshotEvery: -1}
	_, err := seed.Run(cfg)
	if err == nil || !strings.Contains(err.Error(), "line 11") {
		t.Fatalf("run over a corpus with a bad line 11: err = %v", err)
	}
	_, pages, _, ok, err := seed.ReadCheckpointForTest(store.OS(), cfg.DataDir)
	if err != nil || !ok {
		t.Fatalf("reading checkpoint back: ok=%v err=%v", ok, err)
	}
	if pages != 8 {
		t.Fatalf("checkpoint covers %d pages, want the 8 of the two batches before the bad line", pages)
	}
}

// TestSeederGoroutinesJoined pins that Run leaves no goroutine behind on
// any exit path — success, the simulated crash, a stream error while a
// batch commits, a failed checkpoint write — so a look-ahead in flight
// when the loop stops is always waited for. The cases run on the test's
// own goroutine, so the count taken before the first Run is the one
// each must return to.
func TestSeederGoroutinesJoined(t *testing.T) {
	start := runtime.NumGoroutine()
	dir := t.TempDir()
	corpus := filepath.Join(dir, "corpus.jsonl")
	writeJSONL(t, corpus, 16, 11)
	ffs := store.NewFaultFS(store.OS())
	faultDir := filepath.Join(dir, "fault")
	// Boot the fault-run directory first, so its recovery writes nothing
	// and the first rename the armed run makes is a checkpoint's.
	if _, err := seed.Run(seed.Config{DataDir: faultDir, MaxPages: 16, BatchPages: 16, SnapshotEvery: -1, Seed: 7}); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		cfg     seed.Config
		arm     func()
		wantErr string
	}{
		{name: "success", cfg: seed.Config{DataDir: filepath.Join(dir, "ok"), MaxPages: 48, BatchPages: 16, SnapshotEvery: 2, Seed: 7}},
		{name: "crash", cfg: seed.Config{DataDir: filepath.Join(dir, "crash"), MaxPages: 64, BatchPages: 16, Seed: 7, CrashAfterBatches: 2},
			wantErr: seed.ErrCrashed.Error()},
		{name: "jsonl", cfg: seed.Config{DataDir: filepath.Join(dir, "jsonl"), JSONL: corpus, BatchPages: 4, SnapshotEvery: -1},
			wantErr: "line 11"},
		{name: "checkpoint", cfg: seed.Config{DataDir: faultDir, MaxPages: 64, BatchPages: 16, SnapshotEvery: -1, Seed: 8, FS: ffs},
			arm: func() { ffs.Arm(store.Fault{Op: store.OpRename, Nth: 1}) }, wantErr: "seed: checkpoint"},
	}
	for _, tc := range cases {
		if tc.arm != nil {
			tc.arm()
		}
		_, err := seed.Run(tc.cfg)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Fatalf("%s: %v", tc.name, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Fatalf("%s: err = %v, want one containing %q", tc.name, err, tc.wantErr)
		}
		// A joined goroutine may not have finished exiting the moment
		// Run returns; give it a bounded moment to leave the count.
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > start && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > start {
			t.Fatalf("%s: %d goroutines after Run, %d before the first", tc.name, n, start)
		}
	}
}

// TestSeederWaitCounter pins the preparation-wait counter: registered
// on the run's registry, and a share of the run's wall time.
func TestSeederWaitCounter(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := seed.Config{
		DataDir:  filepath.Join(t.TempDir(), "data"),
		MaxPages: 64, BatchPages: 16, SnapshotEvery: -1, Seed: 42, Metrics: reg,
	}
	sum, err := seed.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := reg.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	const name = "dwqa_seeder_wait_seconds_total"
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		val, ok := strings.CutPrefix(sc.Text(), name+" ")
		if !ok {
			continue
		}
		wait, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("%s value %q: %v", name, val, err)
		}
		if wait < 0 || wait > sum.Elapsed.Seconds() {
			t.Fatalf("%s = %g s, want within [0, %g] (the run's elapsed time)", name, wait, sum.Elapsed.Seconds())
		}
		return
	}
	t.Fatalf("%s is not registered", name)
}
