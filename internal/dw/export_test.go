package dw

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// ExecuteReference runs a query with the row-at-a-time engine
// (referenceCellsLocked) and the shared finalisation. It is the
// correctness oracle for the compiled engine — the equivalence tests
// assert byte-identical formatted output — and the baseline the scaling
// benchmarks measure against.
func (w *Warehouse) ExecuteReference(q Query) (*Result, error) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	fd, roleDim, err := w.validateLocked(q)
	if err != nil {
		return nil, err
	}
	return finalize(q, w.referenceCellsLocked(q, fd, roleDim)), nil
}

// executeCellsUnpruned is ExecuteCells with the zone maps neutralised:
// the same compiled plan with every zone live, so it scans every row —
// the baseline the pruning tests compare against bit for bit.
func (w *Warehouse) executeCellsUnpruned(q Query) ([]CellRow, error) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	fd, roleDim, err := w.validateLocked(q)
	if err != nil {
		return nil, err
	}
	p := w.compilePlanLocked(q, fd, roleDim)
	for z := range p.live {
		p.live[z] = true
	}
	return p.materializeCells(p.run()), nil
}

// referenceCellsLocked is the row-at-a-time scan: per-row roll-up walks,
// string group keys, map accumulators. It returns the raw per-group
// cells, sorted by NUL-joined group names — the oracle the compiled
// engine is checked against. Callers must hold w.mu and have validated
// the query.
func (w *Warehouse) referenceCellsLocked(q Query, fd *factData, roleDim map[string]string) []CellRow {
	type compiledFilter struct {
		role, level string
		allowed     map[int]bool
	}
	var filters []compiledFilter
	for _, f := range q.Filters {
		allowed := make(map[int]bool, len(f.Values))
		lt := w.dims[roleDim[f.Role]].levels[f.Level]
		for _, v := range f.Values {
			key, ok := lt.byName[v]
			if !ok {
				// A filter value that matches no member simply matches no
				// rows; this is not an error (slicing on "Oz" is empty).
				continue
			}
			allowed[key] = true
		}
		filters = append(filters, compiledFilter{f.Role, f.Level, allowed})
	}

	type cell struct {
		groups []string
		sum    float64
		count  int
		min    float64
		max    float64
	}
	cells := map[string]*cell{}
	measure := fd.measureColumn(q.Measure)

rows:
	for r := 0; r < fd.rows; r++ {
		for _, f := range filters {
			key := w.rollUpKeyLocked(roleDim[f.role], int(fd.roleColumn(f.role)[r]), f.level)
			if key == NoParent || !f.allowed[key] {
				continue rows
			}
		}
		groups := make([]string, len(q.GroupBy))
		for i, g := range q.GroupBy {
			key := w.rollUpKeyLocked(roleDim[g.Role], int(fd.roleColumn(g.Role)[r]), g.Level)
			if key == NoParent {
				groups[i] = "(unknown)"
			} else {
				groups[i] = w.memberNameLocked(roleDim[g.Role], g.Level, key)
			}
		}
		ck := strings.Join(groups, "\x00")
		c, ok := cells[ck]
		if !ok {
			c = &cell{groups: groups, min: math.Inf(1), max: math.Inf(-1)}
			cells[ck] = c
		}
		var v float64
		if measure != nil {
			v = measure[r]
		}
		c.sum += v
		c.count++
		if v < c.min {
			c.min = v
		}
		if v > c.max {
			c.max = v
		}
	}

	keys := make([]string, 0, len(cells))
	for k := range cells {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]CellRow, 0, len(keys))
	for _, k := range keys {
		c := cells[k]
		out = append(out, CellRow{Groups: c.groups, Sum: c.sum, Count: c.count, Min: c.min, Max: c.max})
	}
	return out
}

// rollUpKeyLocked maps a base-level surrogate key of a dimension to the
// surrogate key of its ancestor at the target level. Returns NoParent when
// the chain is broken (missing parent links).
func (w *Warehouse) rollUpKeyLocked(dim string, baseKey int, level string) int {
	dd := w.dims[dim]
	path := dd.class.PathTo(level)
	if path == nil {
		return NoParent
	}
	key := baseKey
	for i := 0; i < len(path)-1; i++ {
		lt := dd.levels[path[i]]
		if key < 0 || key >= len(lt.members) {
			return NoParent
		}
		key = lt.members[key].Parent
	}
	if key < 0 {
		return NoParent
	}
	return key
}

// FactProvenance returns the lineage string attached to a fact row ("" for
// rows loaded without provenance).
func (w *Warehouse) FactProvenance(fact string, row int) (string, error) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	fd, ok := w.facts[fact]
	if !ok {
		return "", fmt.Errorf("dw: unknown fact %q", fact)
	}
	if row < 0 || row >= fd.rows {
		return "", fmt.Errorf("dw: fact %q row %d out of range", fact, row)
	}
	return fd.rowSource(row), nil
}
