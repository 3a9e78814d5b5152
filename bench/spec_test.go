package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestBenchmarkJSONShape holds BENCHMARK.json to the contract the
// pipeline refuses files outside of.
func TestBenchmarkJSONShape(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(buf))
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(buf, &top); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := top[key]; !ok {
			t.Errorf("no %q key", key)
		}
		delete(top, key)
	}
	for key := range top {
		t.Errorf("unexpected key %q", key)
	}
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	var s spec
	if err := dec.Decode(&s); err != nil {
		t.Fatal(err)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	used := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not 1-64 letters, digits, _ . -", n)
		}
		if used[n] {
			t.Errorf("name %q is used twice", n)
		}
		used[n] = true
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		t.Errorf("run_seconds %d", s.RunSeconds)
	}
	if len(s.Paths) != 1 || s.Paths[0] != "bench" {
		t.Errorf("paths %v", s.Paths)
	}
	if len(s.Command) == 0 || len(s.Command) > 32 {
		t.Errorf("command has %d parts", len(s.Command))
	}
	for _, part := range s.Command {
		if len(part) > 200 || strings.HasPrefix(part, "/") || strings.Contains(part, "..") {
			t.Errorf("command part %q", part)
		}
	}
	if n := len(s.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	// The pipeline makes 4 + 22 × workloads runs inside 3420 s.
	if runs := 4 + 22*len(s.Workloads); runs*(s.RunSeconds+8)+2*60 > 3420 {
		t.Errorf("%d runs of run_seconds + 8 s of set-up do not fit 3420 s", runs)
	}
	for _, w := range s.Workloads {
		checkName(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if n := len(s.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(s.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	setup := false
	for _, m := range s.EndToEnd {
		checkName(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error(`no end-to-end metric setup_s with unit "s" and better "lower"`)
	}
	for _, m := range append(append([]specMetric(nil), s.EndToEnd...), s.PerLayer...) {
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	for _, m := range s.PerLayer {
		checkName(m.Name)
		if m.Bound != 0 {
			t.Errorf("%s: per-layer metrics have no bound", m.Name)
		}
	}

	// Every workload the file names is one the harness implements.
	implemented := map[string]bool{"ingest": true}
	for _, wl := range servingWorkloads {
		implemented[wl.name] = true
	}
	for _, w := range s.Workloads {
		if !implemented[w.Name] {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
}

func TestContractLine(t *testing.T) {
	s, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	r := &result{Workload: "w", Correct: true, Attempted: 3, Metrics: metrics{}}
	if _, err := s.contractLine(r); err == nil {
		t.Error("an untraced result without its end-to-end metrics was rendered")
	}
	for i, m := range s.EndToEnd {
		r.Metrics.set(m.Name, float64(i)+0.5, 1)
	}
	line, err := s.contractLine(r)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatal(err)
	}
	if !got.Correct || got.Attempted != 3 || got.Failed != 0 || len(got.Metrics) != len(s.EndToEnd) {
		t.Errorf("rendered %s", line)
	}
	if m := got.Metrics["setup_s"]; m.Unit != "s" || m.Value != 0.5 {
		t.Errorf("setup_s rendered as %+v", m)
	}
	// A traced result lists every per-layer metric; unexercised layers read 0.
	r.Traced = true
	line, err = s.contractLine(r)
	if err != nil {
		t.Fatal(err)
	}
	got.Metrics = nil
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Metrics) != len(s.PerLayer) {
		t.Errorf("traced line has %d metrics, want %d", len(got.Metrics), len(s.PerLayer))
	}
}

func TestCompare(t *testing.T) {
	s, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	set := func(scale float64) *resultSet {
		rs := newResultSet()
		for run := 0; run < 3; run++ {
			r := &result{Workload: "factoid_cold", Attempted: 100, Metrics: metrics{}}
			for _, m := range s.EndToEnd {
				v := 10.0
				if m.Name == "latency_p50_ms" {
					v *= scale
				}
				r.Metrics.set(m.Name, v+float64(run)/100, 1)
			}
			r.Metrics.set("raw.latency_p50_ms", 12*scale, 1)
			rs.add(r)
		}
		return rs
	}
	var out bytes.Buffer
	if n := s.compare(&out, set(1), set(1.05)); n != 0 {
		t.Errorf("5 %% worse p50 inside its bound counted %d breaches:\n%s", n, out.String())
	}
	if !strings.Contains(out.String(), "raw.latency_p50_ms") || !strings.Contains(out.String(), "12.6000") {
		t.Errorf("the raw twin of p50 is not listed:\n%s", out.String())
	}
	out.Reset()
	if n := s.compare(&out, set(1), set(1.5)); n != 1 || !strings.Contains(out.String(), "BREACH") {
		t.Errorf("50 %% worse p50 counted %d breaches:\n%s", n, out.String())
	}
	if n := s.compare(&out, set(1.5), set(1)); n != 0 {
		t.Errorf("an improvement counted %d breaches", n)
	}
	if w := worsening("higher", 100, 80); w != 0.2 {
		t.Errorf("worsening(higher, 100, 80) = %v", w)
	}
	if w := worsening("lower", 100, 80); w != -0.2 {
		t.Errorf("worsening(lower, 100, 80) = %v", w)
	}
}
