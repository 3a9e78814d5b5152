package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// spec is BENCHMARK.json: the one place that names the workloads and
// the metrics, their units, directions and bounds. The harness emits
// exactly the metrics it lists and -compare applies its bounds.
type spec struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []specItem   `json:"workloads"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specItem struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*spec, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(buf, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.Workloads) == 0 || len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, fmt.Errorf("%s: no workloads or metrics", path)
	}
	return &s, nil
}

// measured is one metric value with the number of samples behind it.
type measured struct {
	Value   float64
	Samples int
}

// metrics collects a run's measurements by metric name.
type metrics map[string]measured

func (m metrics) set(name string, value float64, samples int) {
	m[name] = measured{Value: value, Samples: samples}
}

// result is one run of one workload.
type result struct {
	Workload  string
	Seed      int64
	Traced    bool
	Correct   bool
	Attempted int
	Failed    int
	Invalid   []string // failed checks: wrong replies, lost writes, broken keep-alive
	Guards    []string // validity guards that tripped: the workload no longer stresses what it is for
	Metrics   metrics
}

// contractLine renders the last line of standard output: the result in
// the form the pipeline reads. Untraced runs report every end-to-end
// metric, and one the run did not compute is an error in the harness.
// Traced runs report every per-layer metric; a layer the workload does
// not exercise reports 0.
func (s *spec) contractLine(r *result) ([]byte, error) {
	list := s.EndToEnd
	if r.Traced {
		list = s.PerLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	for _, m := range list {
		got, ok := r.Metrics[m.Name]
		if !ok && !r.Traced {
			return nil, fmt.Errorf("workload %s did not measure %s", r.Workload, m.Name)
		}
		if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
			return nil, fmt.Errorf("workload %s measured %s = %v", r.Workload, m.Name, got.Value)
		}
		out.Metrics[m.Name] = value{got.Value, m.Unit}
	}
	return json.Marshal(out)
}

// printTable writes every metric the run measured, by name, with its
// unit, sample count and (end-to-end metrics) bound.
func (s *spec) printTable(w io.Writer, r *result) {
	fmt.Fprintf(w, "\nworkload %s  seed %d  attempted %d  failed %d  correct %v\n", r.Workload, r.Seed, r.Attempted, r.Failed, r.Correct)
	for _, why := range append(append([]string(nil), r.Invalid...), r.Guards...) {
		fmt.Fprintf(w, "  INVALID: %s\n", why)
	}
	row := func(m specMetric, bound string) {
		if got, ok := r.Metrics[m.Name]; ok {
			fmt.Fprintf(w, "  %-34s %14.4f %-8s n=%-7d %s\n", m.Name, got.Value, m.Unit, got.Samples, bound)
		}
	}
	fmt.Fprintln(w, " end to end")
	for _, m := range s.EndToEnd {
		row(m, fmt.Sprintf("%s is better, bound %.0f %%", m.Better, 100*m.Bound))
	}
	fmt.Fprintln(w, " per layer")
	for _, m := range s.PerLayer {
		row(m, "")
	}
	known := map[string]bool{}
	for _, m := range append(append([]specMetric(nil), s.EndToEnd...), s.PerLayer...) {
		known[m.Name] = true
	}
	var extra []string
	for name := range r.Metrics {
		if !known[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		fmt.Fprintf(w, "  %-34s %14.4f (not in BENCHMARK.json)\n", name, r.Metrics[name].Value)
	}
}
