package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// resultSet is the results.json a harness invocation writes: for each
// workload, the values of every metric over the invocation's runs.
type resultSet struct {
	Runs      int                             `json:"runs"`
	Workloads map[string]map[string][]float64 `json:"workloads"` // workload → metric → one value per run
	Attempted map[string][]int                `json:"attempted"`
	Failed    map[string][]int                `json:"failed"`
}

func newResultSet() *resultSet {
	return &resultSet{Workloads: map[string]map[string][]float64{}, Attempted: map[string][]int{}, Failed: map[string][]int{}}
}

func (rs *resultSet) add(r *result) {
	byMetric := rs.Workloads[r.Workload]
	if byMetric == nil {
		byMetric = map[string][]float64{}
		rs.Workloads[r.Workload] = byMetric
	}
	for name, got := range r.Metrics {
		byMetric[name] = append(byMetric[name], got.Value)
	}
	rs.Attempted[r.Workload] = append(rs.Attempted[r.Workload], r.Attempted)
	rs.Failed[r.Workload] = append(rs.Failed[r.Workload], r.Failed)
	if n := len(rs.Attempted[r.Workload]); n > rs.Runs {
		rs.Runs = n
	}
}

func (rs *resultSet) write(path string) error {
	buf, err := json.MarshalIndent(rs, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

func readResultSet(path string) (*resultSet, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rs := newResultSet()
	if err := json.Unmarshal(buf, rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rs, nil
}

// worsening is how much worse b is than a, as a share of a, for a
// metric whose better direction is given; negative when b is better.
func worsening(better string, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compare prints, for every workload and end-to-end metric, the median
// of both result sets, how much worse the second is, and the bound from
// BENCHMARK.json; under them, unbounded, the same for the raw.* twins
// of the timings. It returns the number of breaches.
func (s *spec) compare(w io.Writer, a, b *resultSet) int {
	breaches := 0
	var names []string
	for name := range a.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-16s %-24s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "worse by", "bound")
	for _, wl := range names {
		for _, m := range s.EndToEnd {
			va, vb := a.Workloads[wl][m.Name], b.Workloads[wl][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-16s %-24s missing from one side  BREACH\n", wl, m.Name)
				breaches++
				continue
			}
			ma, mb := median(va), median(vb)
			worse := worsening(m.Better, ma, mb)
			mark := ""
			if worse > m.Bound {
				mark = "  BREACH"
				breaches++
			}
			fmt.Fprintf(w, "%-16s %-24s %14.4f %14.4f %8.1f%% %6.0f%%%s\n", wl, m.Name, ma, mb, 100*worse, 100*m.Bound, mark)
		}
		for _, m := range s.PerLayer {
			va, vb := a.Workloads[wl][m.Name], b.Workloads[wl][m.Name]
			if strings.HasPrefix(m.Name, "raw.") && len(va) > 0 && len(vb) > 0 {
				ma, mb := median(va), median(vb)
				fmt.Fprintf(w, "%-16s %-24s %14.4f %14.4f %8.1f%%\n", wl, m.Name, ma, mb, 100*worsening(m.Better, ma, mb))
			}
		}
		if fa, fb := sum(a.Failed[wl]), sum(b.Failed[wl]); fa != fb {
			fmt.Fprintf(w, "%-16s failed operations differ: %d and %d  BREACH\n", wl, fa, fb)
			breaches++
		}
	}
	return breaches
}

func sum(vals []int) int {
	total := 0
	for _, v := range vals {
		total += v
	}
	return total
}
