package dw

import (
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
)

// ---------------------------------------------------------------------------
// Memoised roll-up lookup arrays.
//
// rollUpKeyLocked walks the parent chain per row per query — O(pathLen) map
// and slice hops for every fact row. The compiled engine instead resolves a
// whole (dimension, level) pair once into a dense lookup array mapping every
// base-level surrogate key to its ancestor key at the target level (-1 for
// broken chains). Arrays are memoised on the warehouse and invalidated
// whenever a member write could change them.
// ---------------------------------------------------------------------------

type rollupMemoKey struct{ dim, level string }

// rollupTableLocked returns the memoised base→level lookup array. Callers
// must hold w.mu (read or write). The memo has its own mutex so concurrent
// readers can share freshly built tables; lock order is always w.mu before
// w.memoMu.
func (w *Warehouse) rollupTableLocked(dim, level string) []int32 {
	key := rollupMemoKey{dim, level}
	w.memoMu.Lock()
	defer w.memoMu.Unlock()
	if t, ok := w.rollups[key]; ok {
		return t
	}
	t := w.buildRollupLocked(dim, level)
	if w.rollups == nil {
		w.rollups = make(map[rollupMemoKey][]int32)
	}
	w.rollups[key] = t
	return t
}

// buildRollupLocked composes the parent links level by level along the
// roll-up path, mirroring rollUpKeyLocked's semantics exactly.
func (w *Warehouse) buildRollupLocked(dim, level string) []int32 {
	dd := w.dims[dim]
	path := dd.class.PathTo(level)
	if path == nil {
		return nil
	}
	base := dd.levels[path[0]]
	out := make([]int32, len(base.members))
	for k := range out {
		out[k] = int32(k)
	}
	for i := 0; i < len(path)-1; i++ {
		lt := dd.levels[path[i]]
		for j, k := range out {
			if k < 0 || int(k) >= len(lt.members) {
				out[j] = int32(NoParent)
				continue
			}
			out[j] = int32(lt.members[k].Parent)
		}
	}
	return out
}

// invalidateRollups drops every memoised lookup array. Called under w.mu
// whenever a member write could change a parent chain or level cardinality.
func (w *Warehouse) invalidateRollups() {
	w.memoMu.Lock()
	w.rollups = nil
	w.memoMu.Unlock()
}

// ---------------------------------------------------------------------------
// Compiled query plans.
//
// compilePlan resolves every role, level, filter value and measure of a
// query exactly once, so the scan is pure array indexing: per row, each
// filter is two array loads and a bool test, each group-by is two array
// loads folded into a dense composite integer key. No maps, no strings, no
// per-row allocation on the hot path.
// ---------------------------------------------------------------------------

type planGroup struct {
	col    []int32  // coordinate column of the role
	lookup []int32  // base key → target-level key (-1 = unknown)
	names  []string // target-level member names by key
	card   uint64   // len(names)+1; slot 0 encodes "(unknown)"
}

// planFilter evaluates one filter branch-free. The compile step folds the
// rollup lookup and the allowed-value set into two tables arranged so the
// scan needs no per-row conditional: slot maps a (clamped) base key to
// target key+1 with 0 as the "unknown/out-of-range" sentinel, and bits is
// a bitset over those slots whose bit 0 is never set — so the sentinel
// always tests as filtered, and one shift+mask per filter replaces the
// three-way bounds-and-membership branch chain.
type planFilter struct {
	col  []int32
	slot []int32  // base key → target key+1; last entry is the 0 sentinel
	bits []uint64 // allowed-slot bitset; bit 0 (sentinel) always clear
}

type plan struct {
	q       Query
	nRows   int
	measure []float64 // nil for Count (the value is never read)
	groups  []planGroup
	filters []planFilter
	// cells is the product of group cardinalities: the size of the dense
	// aggregation table, or the key space of the sparse one. Validate
	// rejects a query whose product overflows uint64.
	cells uint64
	// live marks the zones whose key ranges overlap every filter's
	// allowed range; only they are scanned. Every row of a dead zone
	// fails some filter, so skipping it changes no cell.
	live []bool
	// scanned counts the rows of live zones, pruned the dead zones: the
	// plan's work counters.
	scanned, pruned uint64
}

// planCell accumulates one group's aggregates. count==0 marks an untouched
// dense slot.
type planCell struct {
	sum   float64
	count int
	min   float64
	max   float64
}

func (c *planCell) add(v float64) {
	if c.count == 0 {
		c.min = math.Inf(1)
		c.max = math.Inf(-1)
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

func (c *planCell) merge(o planCell) {
	if o.count == 0 {
		return
	}
	if c.count == 0 {
		*c = o
		return
	}
	c.sum += o.sum
	c.count += o.count
	if o.min < c.min {
		c.min = o.min
	}
	if o.max > c.max {
		c.max = o.max
	}
}

// compilePlanLocked builds the execution plan for a validated query.
// Callers must hold w.mu.
func (w *Warehouse) compilePlanLocked(q Query, fd *factData, roleDim map[string]string) *plan {
	p := &plan{q: q, nRows: fd.rows, cells: 1, live: make([]bool, (fd.rows+zoneRows-1)/zoneRows)}
	for z := range p.live {
		p.live[z] = true
	}
	if q.Agg != Count {
		p.measure = fd.measureColumn(q.Measure)
	}
	for _, g := range q.GroupBy {
		dim := roleDim[g.Role]
		lt := w.dims[dim].levels[g.Level]
		names := make([]string, len(lt.members))
		for i := range lt.members {
			names[i] = lt.members[i].Name
		}
		pg := planGroup{
			col:    fd.roleColumn(g.Role),
			lookup: w.rollupTableLocked(dim, g.Level),
			names:  names,
			card:   uint64(len(names)) + 1,
		}
		p.cells *= pg.card
		p.groups = append(p.groups, pg)
	}
	for _, f := range q.Filters {
		dim := roleDim[f.Role]
		lt := w.dims[dim].levels[f.Level]
		lookup := w.rollupTableLocked(dim, f.Level)
		// slot has one extra entry: scanRows clamps any out-of-range base
		// key (including negatives via unsigned wrap) onto it, and its
		// value stays 0 — the sentinel slot whose bit is never set.
		slot := make([]int32, len(lookup)+1)
		for i, t := range lookup {
			if t >= 0 && int(t) < len(lt.members) {
				slot[i] = t + 1
			}
		}
		bits := make([]uint64, (len(lt.members)+1+63)/64)
		for _, v := range f.Values {
			if key, ok := lt.byName[v]; ok {
				b := uint32(key) + 1
				bits[b>>6] |= 1 << (b & 63)
			}
		}
		p.filters = append(p.filters, planFilter{
			col:  fd.roleColumn(f.Role),
			slot: slot,
			bits: bits,
		})
		// Zone pruning: [lo, hi] bounds the base keys the filter allows
		// (empty when it allows none), and a zone whose key range misses
		// it holds no row the filter passes.
		lo, hi := int32(math.MaxInt32), int32(math.MinInt32)
		for k, t := range slot[:len(lookup)] {
			if bits[t>>6]>>(t&63)&1 != 0 {
				lo, hi = min(lo, int32(k)), int32(k)
			}
		}
		ri := fd.roleIdx[f.Role]
		for z := range p.live {
			if fd.zoneMax[ri][z] < lo || fd.zoneMin[ri][z] > hi {
				p.live[z] = false
			}
		}
	}
	for z, live := range p.live {
		if live {
			p.scanned += uint64(min((z+1)*zoneRows, fd.rows) - z*zoneRows)
		} else {
			p.pruned++
		}
	}
	return p
}

// planChunkSize is fixed (not derived from GOMAXPROCS) so chunk boundaries
// — and therefore the floating-point association order of the merged sums —
// are identical on every machine and at every parallelism level. It is a
// multiple of zoneRows, so every chunk covers whole zones.
const planChunkSize = 8192

// denseCellLimit bounds the dense aggregation table; beyond it the scan
// falls back to a sparse map keyed by the same composite integer.
const denseCellLimit = 1 << 16

// chunkDenseLimit bounds a per-chunk dense table: a chunk touches at most
// planChunkSize groups, so a dense table much larger than that wastes
// zeroing and merge sweeps — such chunks go sparse even when the final
// accumulator is dense.
const chunkDenseLimit = 2 * planChunkSize

// partial holds aggregates: dense when the group-key space is small,
// sparse otherwise.
type partial struct {
	dense  []planCell
	sparse map[uint64]*planCell
}

func newPartial(cells, denseLimit uint64) *partial {
	if cells <= denseLimit {
		return &partial{dense: make([]planCell, cells)}
	}
	return &partial{sparse: make(map[uint64]*planCell)}
}

func (pt *partial) cell(key uint64) *planCell {
	if pt.dense != nil {
		return &pt.dense[key]
	}
	c, ok := pt.sparse[key]
	if !ok {
		c = &planCell{}
		pt.sparse[key] = c
	}
	return c
}

// mergeFrom folds another partial in. Distinct keys never interact, so the
// per-cell association order is the order of mergeFrom calls (chunk order)
// regardless of the sparse map's iteration order — determinism holds.
func (pt *partial) mergeFrom(o *partial) {
	if o.dense != nil {
		for i := range o.dense {
			if o.dense[i].count > 0 {
				pt.cell(uint64(i)).merge(o.dense[i])
			}
		}
		return
	}
	for k, c := range o.sparse {
		pt.cell(k).merge(*c)
	}
}

// scanChunk aggregates the live zones of chunk c into pt.
func (p *plan) scanChunk(pt *partial, c int) {
	end := min((c+1)*planChunkSize, p.nRows)
	for start := c * planChunkSize; start < end; start += zoneRows {
		if p.live[start/zoneRows] {
			p.scanRows(pt, start, min(start+zoneRows, end))
		}
	}
}

// scanRows aggregates rows [start, end) into pt. Filter evaluation is
// branch-free: each filter contributes one allowed/filtered bit folded
// into pass with mask arithmetic (the index clamp compiles to a
// conditional move), so the row loop carries a single filter branch —
// the final pass test — however many filters the query has.
func (p *plan) scanRows(pt *partial, start, end int) {
	for r := start; r < end; r++ {
		pass := uint64(1)
		for fi := range p.filters {
			f := &p.filters[fi]
			k := uint32(f.col[r]) // negatives wrap to huge values and clamp
			if k >= uint32(len(f.slot)) {
				k = uint32(len(f.slot)) - 1
			}
			t := uint32(f.slot[k])
			pass &= f.bits[t>>6] >> (t & 63)
		}
		if pass == 0 {
			continue
		}
		var key, mult uint64 = 0, 1
		for gi := range p.groups {
			g := &p.groups[gi]
			k := g.col[r]
			var slot uint64
			if k >= 0 && int(k) < len(g.lookup) {
				if t := g.lookup[k]; t >= 0 {
					slot = uint64(t) + 1
				}
			}
			key += slot * mult
			mult *= g.card
		}
		var v float64
		if p.measure != nil {
			v = p.measure[r]
		}
		pt.cell(key).add(v)
	}
}

// run executes the plan: the scan is split into fixed-size chunks, and
// the chunks holding a live zone are processed in waves of up to
// GOMAXPROCS workers. Each wave's partial aggregates are merged into the
// accumulator in chunk order before the next wave starts — so at most
// GOMAXPROCS partials are ever live, and the per-cell float association
// order is the chunk order, which keeps the result bit-for-bit
// deterministic regardless of scheduling or core count. A chunk with no
// live zone would have merged an empty partial, so skipping it changes
// nothing.
func (p *plan) run() *partial {
	const zonesPerChunk = planChunkSize / zoneRows
	var chunks []int
	for z0 := 0; z0 < len(p.live); z0 += zonesPerChunk {
		if slices.Contains(p.live[z0:min(z0+zonesPerChunk, len(p.live))], true) {
			chunks = append(chunks, z0/zonesPerChunk)
		}
	}
	total := newPartial(p.cells, denseCellLimit)
	if len(chunks) <= 1 {
		// Merging one chunk's partial into the empty accumulator copies it
		// cell for cell, so the chunk scans straight into the accumulator.
		for _, c := range chunks {
			p.scanChunk(total, c)
		}
		return total
	}
	workers := min(runtime.GOMAXPROCS(0), len(chunks))
	wave := make([]*partial, workers)
	for base := 0; base < len(chunks); base += workers {
		n := min(workers, len(chunks)-base)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				pt := newPartial(p.cells, chunkDenseLimit)
				p.scanChunk(pt, chunks[base+i])
				wave[i] = pt
			}(i)
		}
		wg.Wait()
		for i := 0; i < n; i++ {
			total.mergeFrom(wave[i])
			wave[i] = nil
		}
	}
	return total
}

// materializeCells decodes the aggregate table into name-keyed raw cells
// — sorted by group names and coalesced — without applying the final
// aggregation. Execute finalises them directly; a sharded deployment
// ships them to the scatter/gather coordinator instead (scatter.go).
func (p *plan) materializeCells(pt *partial) []CellRow {
	type named struct {
		groups []string
		c      planCell
	}
	var cells []named
	emit := func(key uint64, c *planCell) {
		groups := make([]string, len(p.groups))
		for i := range p.groups {
			g := &p.groups[i]
			slot := key % g.card
			key /= g.card
			if slot == 0 {
				groups[i] = "(unknown)"
			} else {
				groups[i] = g.names[slot-1]
			}
		}
		cells = append(cells, named{groups, *c})
	}
	if pt.dense != nil {
		for i := range pt.dense {
			if pt.dense[i].count > 0 {
				emit(uint64(i), &pt.dense[i])
			}
		}
	} else {
		keys := make([]uint64, 0, len(pt.sparse))
		for k := range pt.sparse {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, k := range keys {
			emit(k, pt.sparse[k])
		}
	}
	less := func(a, b []string) bool {
		for x := range a {
			if a[x] != b[x] {
				return a[x] < b[x]
			}
		}
		return false
	}
	// Sort by group names, matching the reference engine's order (it sorts
	// NUL-joined name strings; elementwise comparison is equivalent because
	// member names never contain NUL).
	sort.Slice(cells, func(i, j int) bool { return less(cells[i].groups, cells[j].groups) })
	// Coalesce adjacent cells with identical names: a member literally
	// named "(unknown)" shares its label with the broken-chain sentinel
	// slot, and the reference engine (keyed by name strings) merges the
	// two; do the same.
	out := make([]CellRow, 0, len(cells))
	for i := 0; i < len(cells); {
		c := cells[i].c
		j := i + 1
		for j < len(cells) && !less(cells[i].groups, cells[j].groups) {
			c.merge(cells[j].c)
			j++
		}
		out = append(out, CellRow{Groups: cells[i].groups, Sum: c.sum, Count: c.count, Min: c.min, Max: c.max})
		i = j
	}
	return out
}
