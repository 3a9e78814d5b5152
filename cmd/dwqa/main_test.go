package main

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"dwqa"
)

// flagNames lists the flags registered on fs, sorted.
func flagNames(fs *flag.FlagSet) []string {
	var names []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	sort.Strings(names)
	return names
}

// TestFlagSets pins the whole command-line surface: a new knob has to
// change this test.
func TestFlagSets(t *testing.T) {
	serve := []string{"addr", "cache", "data-dir", "follow", "no-feed", "poll", "pprof",
		"quiet", "seed", "shards", "slow-query", "snapshot-every"}
	if got := flagNames(serveFlags(&serveSetup{})); !reflect.DeepEqual(got, serve) {
		t.Errorf("serve flags = %v, want %v", got, serve)
	}
	trace := []string{"q", "seed"}
	if got := flagNames(traceFlags(&traceSetup{})); !reflect.DeepEqual(got, trace) {
		t.Errorf("trace flags = %v, want %v", got, trace)
	}
}

// TestServeDecision pins what a bare `dwqa serve` runs with: the
// scenario's default pipeline, the engine's default workers and cache,
// and the serving limits.
func TestServeDecision(t *testing.T) {
	ss, err := parseServe(nil)
	if err != nil {
		t.Fatal(err)
	}
	wantEngine := dwqa.EngineConfig{
		Workers:        0,
		CacheSize:      0,
		MaxInflight:    64,
		MaxQueue:       128,
		AskTimeout:     2 * time.Second,
		HarvestTimeout: 30 * time.Second,
	}
	if ss.cfg.Engine != wantEngine {
		t.Errorf("engine config = %+v, want %+v", ss.cfg.Engine, wantEngine)
	}
	want := dwqa.DefaultConfig()
	want.Engine = wantEngine
	if !reflect.DeepEqual(ss.cfg, want) {
		t.Errorf("pipeline config = %+v, want %+v", ss.cfg, want)
	}
	if ss.shards != 1 || ss.poll != 2*time.Second || ss.follow || ss.noFeed || ss.dataDir != "" {
		t.Errorf("topology defaults = %+v", ss)
	}

	srv := ss.opts.server(nil)
	for _, c := range []struct {
		name      string
		got, want time.Duration
	}{
		{"ReadHeaderTimeout", srv.ReadHeaderTimeout, 5 * time.Second},
		{"ReadTimeout", srv.ReadTimeout, 30 * time.Second},
		{"WriteTimeout", srv.WriteTimeout, 60 * time.Second},
		{"IdleTimeout", srv.IdleTimeout, 120 * time.Second},
		{"drain", drainTimeout, 10 * time.Second},
	} {
		if c.got != c.want {
			t.Errorf("%s = %s, want %s", c.name, c.got, c.want)
		}
	}
	if srv.Addr != ":8080" {
		t.Errorf("Addr = %q, want :8080", srv.Addr)
	}
}

// TestServeFlagsApply checks the kept flags land where serving reads
// them.
func TestServeFlagsApply(t *testing.T) {
	dir := t.TempDir()
	ss, err := parseServe([]string{"-seed", "7", "-addr", "127.0.0.1:9", "-cache", "-1",
		"-no-feed", "-data-dir", dir, "-snapshot-every", "1m", "-follow", "-poll", "500ms",
		"-quiet", "-slow-query", "5ms", "-pprof", "localhost:6060"})
	if err != nil {
		t.Fatal(err)
	}
	if ss.cfg.Seed != 7 || ss.cfg.Engine.CacheSize != -1 || !ss.noFeed || ss.dataDir != dir ||
		ss.snapEvery != time.Minute || !ss.follow || ss.poll != 500*time.Millisecond {
		t.Errorf("setup = %+v", ss)
	}
	want := serveOptions{addr: "127.0.0.1:9", quiet: true, slowQuery: 5 * time.Millisecond, pprofAddr: "localhost:6060"}
	if ss.opts != want {
		t.Errorf("opts = %+v, want %+v", ss.opts, want)
	}
}

// TestServeRejects covers the flag errors: every flag the serving
// surface dropped, and the values validation refuses.
func TestServeRejects(t *testing.T) {
	// The flag package prints usage on an unknown flag; keep it out of
	// the test log.
	stderr := os.Stderr
	devnull, err := os.Open(os.DevNull)
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = devnull
	t.Cleanup(func() { os.Stderr = stderr; devnull.Close() })

	for _, args := range [][]string{
		{"-workers", "4"},
		{"-drain", "1s"},
		{"-max-inflight", "1"},
		{"-max-queue", "1"},
		{"-ask-timeout", "1s"},
		{"-harvest-timeout", "1s"},
		{"-read-header-timeout", "1s"},
		{"-read-timeout", "1s"},
		{"-write-timeout", "1s"},
		{"-idle-timeout", "1s"},
		{"-no-ontology"},
		{"-no-irfilter"},
		{"-table-aware"},
	} {
		if _, err := parseServe(args); err == nil || !strings.Contains(err.Error(), "not defined") {
			t.Errorf("serve %v: err = %v, want an undefined-flag error", args, err)
		}
	}
	for _, name := range []string{"-no-ontology", "-no-irfilter", "-table-aware"} {
		if err := traceFlags(&traceSetup{}).Parse([]string{name}); err == nil {
			t.Errorf("trace %s parsed; the flag was removed", name)
		}
	}

	// A lone shard-000/ is the layout earlier 1-shard clusters wrote; a
	// 1-shard cluster now keeps its store in the directory root.
	legacy := t.TempDir()
	if err := os.Mkdir(filepath.Join(legacy, "shard-000"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-poll", "0"}, "-poll must be positive"},
		{[]string{"-poll", "-1s"}, "-poll must be positive"},
		{[]string{"-follow", "-data-dir", t.TempDir(), "-poll", "0"}, "-poll must be positive"},
		{[]string{"-shards", "0"}, "-shards must be at least 1"},
		{[]string{"-follow"}, "-follow requires -data-dir"},
		{[]string{"-data-dir", legacy}, "shard-000/, a layout no longer read"},
		{[]string{"-follow", "-data-dir", legacy}, "shard-000/, a layout no longer read"},
	} {
		if _, err := parseServe(c.args); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("serve %v: err = %v, want %q", c.args, err, c.want)
		}
	}
}
