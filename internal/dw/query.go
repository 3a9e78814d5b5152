package dw

import (
	"fmt"
	"math"
	"strings"
)

// Agg is an aggregation function applied to a measure.
type Agg string

// Supported aggregation functions.
const (
	Sum   Agg = "sum"
	Count Agg = "count"
	Avg   Agg = "avg"
	Min   Agg = "min"
	Max   Agg = "max"
)

// LevelSel selects the aggregation level for one role of the fact: "group
// the Destination role at the City level". Rolling up means selecting a
// coarser level; drilling down a finer one.
type LevelSel struct {
	Role  string
	Level string
}

// Filter keeps fact rows whose member (for Role, at Level) is in Values —
// the OLAP slice (single value) and dice (several values) operations.
type Filter struct {
	Role   string
	Level  string
	Values []string
}

// Query is an OLAP query over one fact table.
type Query struct {
	Fact    string
	Measure string
	Agg     Agg
	GroupBy []LevelSel
	Filters []Filter
}

// Row is one result row: the group member names (in GroupBy order), the
// aggregated value and the number of fact rows aggregated.
type Row struct {
	Groups []string
	Value  float64
	Count  int
}

// Result is a deterministic (sorted) result set.
type Result struct {
	Query Query
	Rows  []Row
}

// validateLocked checks a query against the schema and resolves the fact
// table and the dimension of every referenced role. Both the compiled
// engine and the reference engine share it. Callers must hold w.mu.
func (w *Warehouse) validateLocked(q Query) (*factData, map[string]string, error) {
	fd, ok := w.facts[q.Fact]
	if !ok {
		return nil, nil, fmt.Errorf("dw: unknown fact %q", q.Fact)
	}
	if q.Agg == Count {
		// Count needs no measure, but naming a nonexistent one is a query
		// bug that would otherwise be silently accepted.
		if q.Measure != "" && fd.class.Measure(q.Measure) == nil {
			return nil, nil, fmt.Errorf("dw: fact %q has no measure %q", q.Fact, q.Measure)
		}
	} else if fd.class.Measure(q.Measure) == nil {
		return nil, nil, fmt.Errorf("dw: fact %q has no measure %q", q.Fact, q.Measure)
	}
	switch q.Agg {
	case Sum, Count, Avg, Min, Max:
	default:
		return nil, nil, fmt.Errorf("dw: unknown aggregation %q", q.Agg)
	}
	roleDim := map[string]string{}
	for _, ref := range fd.class.Dimensions {
		roleDim[ref.Role] = ref.Dimension
	}
	// Grouping one role at two different levels is a legitimate drill
	// presentation; only an exact (role, level) repeat is a redundant
	// column and almost certainly a query bug.
	seenGroups := map[LevelSel]bool{}
	// keySpace is the product of the grouped levels' cardinalities (+1
	// each for the "(unknown)" slot): the compiled plan's composite
	// group key must fit in a uint64, or distinct groups would merge.
	keySpace := uint64(1)
	for _, g := range q.GroupBy {
		if seenGroups[g] {
			return nil, nil, fmt.Errorf("dw: duplicate group-by %s at level %s", g.Role, g.Level)
		}
		seenGroups[g] = true
		if err := w.checkRoleLevelLocked(roleDim, g.Role, g.Level, q.Fact); err != nil {
			return nil, nil, err
		}
		card := uint64(len(w.dims[roleDim[g.Role]].levels[g.Level].members)) + 1
		if keySpace > math.MaxUint64/card {
			return nil, nil, fmt.Errorf("dw: too many groups: the %d group-by columns have more than 2^64 member combinations", len(q.GroupBy))
		}
		keySpace *= card
	}
	for _, f := range q.Filters {
		if err := w.checkRoleLevelLocked(roleDim, f.Role, f.Level, q.Fact); err != nil {
			return nil, nil, err
		}
	}
	return fd, roleDim, nil
}

// Validate checks a query against the schema without executing it: the
// fact, measure, aggregation, every group-by and filter (role, level)
// pair, exact duplicate group-by columns and a group-key space beyond
// uint64 are verified exactly as Execute would. Query front-ends (the
// NL→OLAP translator) use it to guarantee they never emit a plan
// Execute would reject.
func (w *Warehouse) Validate(q Query) error {
	w.mu.RLock()
	defer w.mu.RUnlock()
	_, _, err := w.validateLocked(q)
	return err
}

// Execute runs an OLAP query against the warehouse using the compiled
// columnar engine: roles, levels and filters are resolved once into a plan
// whose scan is pure array indexing over the fact columns, parallelised
// across row chunks (see plan.go). It is ExecuteCells plus the
// finalisation MergeCells applies (scatter.go).
func (w *Warehouse) Execute(q Query) (*Result, error) {
	cells, err := w.ExecuteCells(q)
	if err != nil {
		return nil, err
	}
	return finalize(q, cells), nil
}

func (w *Warehouse) checkRoleLevelLocked(roleDim map[string]string, role, level, fact string) error {
	dim, ok := roleDim[role]
	if !ok {
		return fmt.Errorf("dw: fact %q has no role %q", fact, role)
	}
	if w.dims[dim].class.PathTo(level) == nil {
		return fmt.Errorf("dw: level %q is not on the roll-up path of dimension %q", level, dim)
	}
	return nil
}

// RollUp re-runs a query with one role moved to a coarser level.
func (w *Warehouse) RollUp(q Query, role, toLevel string) (*Result, error) {
	return w.Execute(retarget(q, role, toLevel))
}

// DrillDown re-runs a query with one role moved to a finer level. The
// mechanics are the same as RollUp; the direction is the caller's intent
// ("drilling down to obtain those documents published in July 1998").
func (w *Warehouse) DrillDown(q Query, role, toLevel string) (*Result, error) {
	return w.Execute(retarget(q, role, toLevel))
}

// Slice adds a single-value filter to a query and runs it.
func (w *Warehouse) Slice(q Query, role, level, value string) (*Result, error) {
	q.Filters = append(append([]Filter(nil), q.Filters...), Filter{role, level, []string{value}})
	return w.Execute(q)
}

// Dice adds a multi-value filter to a query and runs it.
func (w *Warehouse) Dice(q Query, role, level string, values []string) (*Result, error) {
	q.Filters = append(append([]Filter(nil), q.Filters...), Filter{role, level, values})
	return w.Execute(q)
}

func retarget(q Query, role, toLevel string) Query {
	// Rewriting every entry of the role can collapse a two-level drill
	// presentation onto one level; dedup so the result stays valid.
	gb := make([]LevelSel, 0, len(q.GroupBy))
	seen := map[LevelSel]bool{}
	replaced := false
	for _, g := range q.GroupBy {
		if g.Role == role {
			g.Level = toLevel
			replaced = true
		}
		if seen[g] {
			continue
		}
		seen[g] = true
		gb = append(gb, g)
	}
	if !replaced {
		gb = append(gb, LevelSel{role, toLevel})
	}
	q.GroupBy = gb
	return q
}

// Format renders the result as an aligned text table (used by the OLAP CLI
// and the experiment reports).
func (r *Result) Format() string {
	var b strings.Builder
	header := make([]string, 0, len(r.Query.GroupBy)+1)
	for _, g := range r.Query.GroupBy {
		header = append(header, g.Role+"/"+g.Level)
	}
	header = append(header, fmt.Sprintf("%s(%s)", r.Query.Agg, r.Query.Measure))
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	cellsOf := func(row Row) []string {
		cells := append([]string(nil), row.Groups...)
		return append(cells, fmt.Sprintf("%.2f", row.Value))
	}
	for _, row := range r.Rows {
		for i, c := range cellsOf(row) {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			for pad := len(c); pad < widths[i]; pad++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	for _, row := range r.Rows {
		writeRow(cellsOf(row))
	}
	return b.String()
}
