package dw

import (
	"sort"
	"strings"
)

// Scatter/gather execution: a sharded warehouse partitions fact rows
// across N member-identical warehouses, runs the same plan on each, and
// re-aggregates the per-shard partials. The unit shipped between shards
// is the CellRow — one group's raw aggregates before the final Agg is
// applied — because sums, counts, minima and maxima compose across
// partitions while averages do not. MergeCells folds the partials in
// shard order and finalises exactly like the single-warehouse engines
// (name-sorted rows, Agg applied last), so the gathered Result is
// answer-identical to executing the query on one warehouse holding
// every row.

// CellRow is one group's raw aggregate state: the partial a shard ships
// to the scatter/gather coordinator. Count is always ≥ 1 (untouched
// groups are never emitted).
type CellRow struct {
	Groups []string
	Sum    float64
	Count  int
	Min    float64
	Max    float64
}

// merge folds another partial of the same group in (same semantics as
// planCell.merge).
func (c *CellRow) merge(o CellRow) {
	c.Sum += o.Sum
	c.Count += o.Count
	if o.Min < c.Min {
		c.Min = o.Min
	}
	if o.Max > c.Max {
		c.Max = o.Max
	}
}

// ExecuteCells runs a query like Execute but stops before the final
// aggregation: it returns the per-group raw aggregates, sorted by group
// names and coalesced (one cell per distinct name tuple) — the shard
// half of scatter/gather.
func (w *Warehouse) ExecuteCells(q Query) ([]CellRow, error) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	fd, roleDim, err := w.validateLocked(q)
	if err != nil {
		return nil, err
	}
	p := w.compilePlanLocked(q, fd, roleDim)
	cells := p.materializeCells(p.run())
	if c := w.met.RowsScanned; c != nil {
		c.Add(p.scanned)
	}
	if c := w.met.ZonesPruned; c != nil {
		c.Add(p.pruned)
	}
	return cells, nil
}

// MergeCells gathers per-shard partials into the final Result: cells
// with identical group names are folded in shard order (so the float
// association order is deterministic for a fixed shard layout), rows
// are sorted by their NUL-joined names — the order every execution
// engine in this package produces — and the query's Agg is applied
// last, which is what makes Avg correct across partitions.
func MergeCells(q Query, parts [][]CellRow) *Result {
	merged := map[string]*CellRow{}
	for _, cells := range parts {
		for _, c := range cells {
			if c.Count == 0 {
				continue
			}
			ck := strings.Join(c.Groups, "\x00")
			if m, ok := merged[ck]; ok {
				m.merge(c)
			} else {
				cc := c
				merged[ck] = &cc
			}
		}
	}
	keys := make([]string, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	cells := make([]CellRow, len(keys))
	for i, k := range keys {
		cells[i] = *merged[k]
	}
	return finalize(q, cells)
}

// finalize builds the Result rows from sorted, coalesced cells, applying
// the query's Agg to each — the one place every engine in this package
// turns raw aggregates into answers.
func finalize(q Query, cells []CellRow) *Result {
	res := &Result{Query: q}
	for i := range cells {
		c := &cells[i]
		res.Rows = append(res.Rows, Row{Groups: c.Groups, Value: finalValue(q.Agg, c), Count: c.Count})
	}
	return res
}

// finalValue applies the query aggregation to a completed cell.
func finalValue(agg Agg, c *CellRow) float64 {
	switch agg {
	case Sum:
		return c.Sum
	case Count:
		return float64(c.Count)
	case Avg:
		return c.Sum / float64(c.Count)
	case Min:
		return c.Min
	case Max:
		return c.Max
	}
	return 0
}
