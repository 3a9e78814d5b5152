package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestBenchSmoke runs the whole harness at a small scale: it builds
// cmd/seeder and cmd/dwqa from the tree, seeds a 2 000-passage corpus,
// runs all four workloads untraced and traced against a real server,
// and holds every result to BENCHMARK.json. The validity guards are
// tuned for the 100 000-passage tier (retrieval does not dominate a
// corpus this small), so a tripped guard is logged, not failed; wrong
// replies, lost writes and missing metrics fail.
func TestBenchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots real servers")
	}
	build := t.TempDir()
	h, err := newHarness("..", build, filepath.Join(build, "out"))
	if err != nil {
		t.Fatal(err)
	}
	h.passages, h.setUps = 2000, 2
	defer h.cleanup()
	if err := h.buildBinaries(); err != nil {
		t.Fatal(err)
	}

	layerSeen := map[string]bool{}
	for _, traced := range []bool{false, true} {
		for _, wl := range h.spec.Workloads {
			res, err := h.runWorkload(wl.Name, 1, 1, traced)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", wl.Name, traced, err)
			}
			if res.Failed != 0 || len(res.Invalid) != 0 || res.Attempted < 1 {
				t.Errorf("%s (traced %v): attempted %d, failed %d, invalid %q", wl.Name, traced, res.Attempted, res.Failed, res.Invalid)
			}
			for _, g := range res.Guards {
				t.Logf("%s: guard (expected at this scale): %s", wl.Name, g)
			}
			line, err := h.spec.contractLine(res)
			if err != nil {
				t.Errorf("%s (traced %v): %v", wl.Name, traced, err)
				continue
			}
			var got struct {
				Metrics map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal(line, &got); err != nil {
				t.Fatal(err)
			}
			if traced {
				for name := range res.Metrics {
					layerSeen[name] = true
				}
				if len(got.Metrics) != len(h.spec.PerLayer) {
					t.Errorf("%s: traced line has %d metrics, want %d", wl.Name, len(got.Metrics), len(h.spec.PerLayer))
				}
				continue
			}
			for _, m := range h.spec.EndToEnd {
				if v, ok := got.Metrics[m.Name]; !ok || v.Value <= 0 || v.Unit != m.Unit {
					t.Errorf("%s: end-to-end metric %s = %+v", wl.Name, m.Name, v)
				}
			}
			if wl.Name == "hot_mixed_feed" {
				// Present only once the kill-and-reboot durability check has run.
				if _, ok := res.Metrics["store.reboot_after_feeds_ms"]; !ok {
					t.Error("hot_mixed_feed did not reboot on the fed directory")
				}
				if n := res.Metrics["engine.feeds_committed"].Value; n != float64(len(harvestQuestions())) {
					t.Errorf("hot_mixed_feed committed %v feeds", n)
				}
			}
		}
	}
	// Every per-layer metric is measured by some workload's traced run.
	for _, m := range h.spec.PerLayer {
		if !layerSeen[m.Name] {
			t.Errorf("no traced run measured %s", m.Name)
		}
	}

	buf, err := os.ReadFile(filepath.Join(h.outDir, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		Workload string
		Spans    []span
		Calls    []string
	}
	if err := json.Unmarshal(buf, &trace); err != nil || len(trace.Spans) == 0 || len(trace.Calls) == 0 {
		t.Errorf("trace.json: %v, %d spans", err, len(trace.Spans))
	}
	for _, s := range trace.Spans {
		if s.EndNs < s.StartNs || s.Parent >= s.ID {
			t.Fatalf("malformed span %+v", s)
		}
	}

	h.cleanup()
	if _, err := os.Stat(h.tmpDir); !os.IsNotExist(err) {
		t.Errorf("temporary directory %s survives cleanup", h.tmpDir)
	}
	if len(h.procs) != 0 {
		t.Errorf("%d child processes survive cleanup", len(h.procs))
	}
}
