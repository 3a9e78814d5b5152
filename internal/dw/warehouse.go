// Package dw implements the data warehouse engine beneath the BI side of
// the integration: star-schema storage for a multidimensional schema
// (package mdm), surrogate-keyed dimension tables with roll-up hierarchies,
// fact tables, and an OLAP query engine supporting roll-up, drill-down,
// slice and dice with the usual aggregation functions.
package dw

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"dwqa/internal/mdm"
	"dwqa/internal/obs"
)

// NoParent marks a member without a parent at the next level.
const NoParent = -1

// Member is a row of a dimension level table: a surrogate key, the
// descriptor value (its name), optional attributes and the surrogate key
// of its parent member at the next coarser level.
type Member struct {
	Key    int
	Name   string
	Attrs  map[string]string
	Parent int // surrogate key at RollsUpTo level, or NoParent
}

// levelTable stores the members of one dimension level.
type levelTable struct {
	members []Member
	byName  map[string]int // descriptor value → surrogate key
}

func newLevelTable() *levelTable {
	return &levelTable{byName: make(map[string]int)}
}

// dimensionData stores every level table of one dimension.
type dimensionData struct {
	class  *mdm.DimensionClass
	levels map[string]*levelTable
}

// Warehouse is a populated star schema. It is safe for concurrent use;
// loads take the write lock, queries the read lock. Fact tables are stored
// columnar (see factData); roll-up lookup arrays are memoised per
// (dimension, level) and invalidated on member writes.
type Warehouse struct {
	mu     sync.RWMutex
	schema *mdm.Schema
	dims   map[string]*dimensionData
	facts  map[string]*factData

	// journal, when set, receives every committed write batch while the
	// write lock is still held, so the log preserves commit order. See
	// SetJournal for the durability contract.
	journal Journal

	met Metrics

	memoMu  sync.Mutex
	rollups map[rollupMemoKey][]int32

	// memberGen is the member generation: a value drawn from memberGens
	// whenever the set of member names changes. See MemberGeneration.
	memberGen atomic.Uint64
}

// memberGens is the process-wide source of member generations. One
// counter across all warehouses means a warehouse swapped in for
// another (a follower's snapshot reload, InstallState) never reports a
// generation a reader already saw from the one it replaced.
var memberGens atomic.Uint64

// MemberGeneration identifies the warehouse's current set of member
// names: it changes, under the write lock, with every member a commit
// adds and with every Import, and at no other time. Caches derived from
// member names (the analytic translator's grounding dictionary) compare
// it to decide whether to rebuild. It is a lock-free load.
func (w *Warehouse) MemberGeneration() uint64 { return w.memberGen.Load() }

// bumpMembersLocked records a change to the member names. Caller holds
// the write lock.
func (w *Warehouse) bumpMembersLocked() { w.memberGen.Store(memberGens.Add(1)) }

// Journal receives the warehouse's committed write batches — the redo log
// of the durability subsystem (internal/store). Implementations append
// the batch to stable storage and return any I/O error.
type Journal interface {
	// LogBatch records one AddBatch commit — its members and the fact rows
	// that depend on them — as a single log record, so a crash can never
	// replay the members without their rows.
	LogBatch(specs []MemberSpec, fact string, rows []FactRow) error
}

// SetJournal installs (or, with nil, removes) the redo journal. AddBatch
// is the warehouse's only write, so every subsequent validated batch is
// logged — one LogBatch call — under the write lock, in commit order.
// Because the warehouse itself is volatile, logging inside the
// commit (after validation, before the caller is acked) gives write-ahead
// semantics: a batch is recoverable if and only if its caller saw
// success. Recovery must attach the journal only after WAL replay, or
// replayed batches would be re-logged.
func (w *Warehouse) SetJournal(j Journal) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.journal = j
}

// Metrics are the optional work counters the query engine adds to once
// per ExecuteCells. Nil counters are skipped, so an unmetered warehouse
// counts nothing.
type Metrics struct {
	// RowsScanned counts the fact rows the scan loop visited.
	RowsScanned *obs.Counter
	// ZonesPruned counts the zones the scan skipped because no filter
	// could match them.
	ZonesPruned *obs.Counter
}

// SetMetrics attaches the work counters. Queries that start afterwards
// count into them.
func (w *Warehouse) SetMetrics(m Metrics) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.met = m
}

// New builds an empty warehouse for a validated schema.
func New(schema *mdm.Schema) (*Warehouse, error) {
	if err := schema.Validate(); err != nil {
		return nil, fmt.Errorf("dw: invalid schema: %w", err)
	}
	w := &Warehouse{
		schema: schema,
		dims:   make(map[string]*dimensionData),
		facts:  make(map[string]*factData),
	}
	for _, d := range schema.Dimensions {
		dd := &dimensionData{class: d, levels: make(map[string]*levelTable)}
		for _, l := range d.Levels {
			dd.levels[l.Name] = newLevelTable()
		}
		w.dims[d.Name] = dd
	}
	for _, f := range schema.Facts {
		w.facts[f.Name] = newFactData(f)
	}
	w.bumpMembersLocked()
	return w, nil
}

// Schema returns the schema the warehouse was built for.
func (w *Warehouse) Schema() *mdm.Schema { return w.schema }

// addMemberLocked applies one member spec: it inserts the member or,
// when the name exists, merges its attributes and moves its parent when
// one is given. The checks repeat AddBatch's validation, so a spec that
// slipped past it fails loudly instead of corrupting the level. Caller
// holds the write lock.
func (w *Warehouse) addMemberLocked(s MemberSpec) error {
	dd, ok := w.dims[s.Dim]
	if !ok {
		return fmt.Errorf("dw: unknown dimension %q", s.Dim)
	}
	lt, ok := dd.levels[s.Level]
	if !ok {
		return fmt.Errorf("dw: unknown level %q of dimension %q", s.Level, s.Dim)
	}
	if s.Name == "" {
		return fmt.Errorf("dw: empty member name for %s.%s", s.Dim, s.Level)
	}
	lvl := dd.class.Level(s.Level)
	parent := NoParent
	if s.Parent != "" {
		if lvl.RollsUpTo == "" {
			return fmt.Errorf("dw: level %q of %q is the hierarchy top, cannot have parent %q", s.Level, s.Dim, s.Parent)
		}
		pk, ok := dd.levels[lvl.RollsUpTo].byName[s.Parent]
		if !ok {
			return fmt.Errorf("dw: parent %q not found at level %q of %q", s.Parent, lvl.RollsUpTo, s.Dim)
		}
		parent = pk
	}
	if key, ok := lt.byName[s.Name]; ok {
		m := &lt.members[key]
		for k, v := range s.Attrs {
			if m.Attrs == nil {
				m.Attrs = make(map[string]string)
			}
			m.Attrs[k] = v
		}
		if parent != NoParent && m.Parent != parent {
			m.Parent = parent
			w.invalidateRollups()
		}
		return nil
	}
	w.invalidateRollups()
	w.bumpMembersLocked()
	key := len(lt.members)
	cp := make(map[string]string, len(s.Attrs))
	for k, v := range s.Attrs {
		cp[k] = v
	}
	lt.members = append(lt.members, Member{Key: key, Name: s.Name, Attrs: cp, Parent: parent})
	lt.byName[s.Name] = key
	return nil
}

// MemberSpec describes one member of an AddBatch commit.
type MemberSpec struct {
	Dim    string
	Level  string
	Name   string
	Parent string // parent member name at the RollsUpTo level; "" for none
	Attrs  map[string]string
}

// MemberKey returns the surrogate key of a member by name, or an error.
func (w *Warehouse) MemberKey(dim, level, name string) (int, error) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	dd, ok := w.dims[dim]
	if !ok {
		return 0, fmt.Errorf("dw: unknown dimension %q", dim)
	}
	lt, ok := dd.levels[level]
	if !ok {
		return 0, fmt.Errorf("dw: unknown level %q of dimension %q", level, dim)
	}
	key, ok := lt.byName[name]
	if !ok {
		return 0, fmt.Errorf("dw: member %q not found at %s.%s", name, dim, level)
	}
	return key, nil
}

// Member returns a copy of the member with the given key.
func (w *Warehouse) Member(dim, level string, key int) (Member, error) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	dd, ok := w.dims[dim]
	if !ok {
		return Member{}, fmt.Errorf("dw: unknown dimension %q", dim)
	}
	lt, ok := dd.levels[level]
	if !ok {
		return Member{}, fmt.Errorf("dw: unknown level %q of dimension %q", level, dim)
	}
	if key < 0 || key >= len(lt.members) {
		return Member{}, fmt.Errorf("dw: key %d out of range at %s.%s", key, dim, level)
	}
	return lt.members[key], nil
}

// ParentName returns the name of a member's parent at the next coarser
// level ("" when the member has no parent or the level is the top).
func (w *Warehouse) ParentName(dim, level, name string) (string, error) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	dd, ok := w.dims[dim]
	if !ok {
		return "", fmt.Errorf("dw: unknown dimension %q", dim)
	}
	lt, ok := dd.levels[level]
	if !ok {
		return "", fmt.Errorf("dw: unknown level %q of dimension %q", level, dim)
	}
	key, ok := lt.byName[name]
	if !ok {
		return "", fmt.Errorf("dw: member %q not found at %s.%s", name, dim, level)
	}
	parent := lt.members[key].Parent
	lvl := dd.class.Level(level)
	if parent == NoParent || lvl.RollsUpTo == "" {
		return "", nil
	}
	return w.memberNameLocked(dim, lvl.RollsUpTo, parent), nil
}

// Members returns the member names of a dimension level, sorted.
func (w *Warehouse) Members(dim, level string) []string {
	w.mu.RLock()
	defer w.mu.RUnlock()
	dd, ok := w.dims[dim]
	if !ok {
		return nil
	}
	lt, ok := dd.levels[level]
	if !ok {
		return nil
	}
	out := make([]string, 0, len(lt.members))
	for _, m := range lt.members {
		out = append(out, m.Name)
	}
	sort.Strings(out)
	return out
}

// MemberCount returns the number of members at a dimension level.
func (w *Warehouse) MemberCount(dim, level string) int {
	w.mu.RLock()
	defer w.mu.RUnlock()
	if dd, ok := w.dims[dim]; ok {
		if lt, ok := dd.levels[level]; ok {
			return len(lt.members)
		}
	}
	return 0
}

// FactRow is one fact row of an AddBatch commit.
type FactRow struct {
	Coords     map[string]string  // role → base-level member name
	Measures   map[string]float64 // measure name → value
	Provenance string             // lineage; "" for none
}

// AddBatch is the warehouse's only write: it commits a member batch and
// a fact-row batch as one atomic transaction — either every member and
// every row lands, or nothing does. Everything is validated first
// against the live tables plus a pending overlay (so specs may parent
// each other and rows may reference members introduced earlier in the
// same batch), then the whole transaction is journalled as a single
// combined WAL record, then applied. The apply step cannot fail after
// validation, so neither a caller nor a reader ever observes members
// committed without their rows. Specs are applied in order; parents
// must precede their children or already exist. Re-adding an existing
// member merges its attributes and moves its parent when one is given.
// An empty batch is a no-op and journals nothing; rows may be empty when
// only members are loaded (fact must still name a known fact when rows
// are present).
func (w *Warehouse) AddBatch(specs []MemberSpec, fact string, rows []FactRow) error {
	if len(specs) == 0 && len(rows) == 0 {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()

	// Validate the member specs without mutating: pending tracks names
	// this batch will introduce, keyed (dim, level).
	pending := map[[2]string]map[string]bool{}
	for i, s := range specs {
		dd, ok := w.dims[s.Dim]
		if !ok {
			return fmt.Errorf("dw: batch spec %d: unknown dimension %q", i, s.Dim)
		}
		if _, ok := dd.levels[s.Level]; !ok {
			return fmt.Errorf("dw: batch spec %d: unknown level %q of dimension %q", i, s.Level, s.Dim)
		}
		if s.Name == "" {
			return fmt.Errorf("dw: batch spec %d: empty member name for %s.%s", i, s.Dim, s.Level)
		}
		lvl := dd.class.Level(s.Level)
		if s.Parent != "" {
			if lvl.RollsUpTo == "" {
				return fmt.Errorf("dw: batch spec %d: level %q of %q is the hierarchy top, cannot have parent %q",
					i, s.Level, s.Dim, s.Parent)
			}
			pkey := [2]string{s.Dim, lvl.RollsUpTo}
			if _, ok := dd.levels[lvl.RollsUpTo].byName[s.Parent]; !ok && !pending[pkey][s.Parent] {
				return fmt.Errorf("dw: batch spec %d: parent %q not found at level %q of %q",
					i, s.Parent, lvl.RollsUpTo, s.Dim)
			}
		}
		key := [2]string{s.Dim, s.Level}
		if pending[key] == nil {
			pending[key] = map[string]bool{}
		}
		pending[key][s.Name] = true
	}

	// Validate the rows, allowing base-level coordinates the spec batch
	// introduces.
	var fd *factData
	if len(rows) > 0 {
		var ok bool
		fd, ok = w.facts[fact]
		if !ok {
			return fmt.Errorf("dw: unknown fact %q", fact)
		}
		for r, row := range rows {
			for _, ref := range fd.class.Dimensions {
				name, ok := row.Coords[ref.Role]
				if !ok {
					return fmt.Errorf("dw: batch row %d: fact %q row missing role %q", r, fact, ref.Role)
				}
				dd := w.dims[ref.Dimension]
				base := dd.class.Base()
				if _, ok := dd.levels[base.Name].byName[name]; !ok && !pending[[2]string{ref.Dimension, base.Name}][name] {
					return fmt.Errorf("dw: batch row %d: fact %q role %q: member %q not found at base level %q of %q",
						r, fact, ref.Role, name, base.Name, ref.Dimension)
				}
			}
			for name := range row.Measures {
				if _, ok := fd.measureIdx[name]; !ok {
					return fmt.Errorf("dw: batch row %d: fact %q has no measure %q", r, fact, name)
				}
			}
		}
	}

	// Write-ahead: one combined record for the whole transaction. The
	// apply below mirrors the validation exactly, so it cannot fail past
	// this point.
	if w.journal != nil {
		if err := w.journal.LogBatch(specs, fact, rows); err != nil {
			return fmt.Errorf("dw: journal: %w", err)
		}
	}
	for _, s := range specs {
		if err := w.addMemberLocked(s); err != nil {
			// Unreachable while the validation above mirrors
			// addMemberLocked; surfaced loudly rather than swallowed.
			return fmt.Errorf("dw: applying validated batch spec: %w", err)
		}
	}
	for r, row := range rows {
		keys, vals, err := w.resolveRowLocked(fd, fact, row.Coords, row.Measures)
		if err != nil {
			return fmt.Errorf("dw: applying validated batch row %d: %w", r, err)
		}
		fd.appendRow(keys, vals, row.Provenance)
	}
	return nil
}

// resolveRowLocked resolves one fact row's member names to surrogate keys
// and its measure map to column order.
func (w *Warehouse) resolveRowLocked(fd *factData, fact string, coords map[string]string, measures map[string]float64) ([]int32, []float64, error) {
	keys := make([]int32, len(fd.roles))
	for i, ref := range fd.class.Dimensions {
		name, ok := coords[ref.Role]
		if !ok {
			return nil, nil, fmt.Errorf("dw: fact %q row missing role %q", fact, ref.Role)
		}
		dd := w.dims[ref.Dimension]
		base := dd.class.Base()
		key, ok := dd.levels[base.Name].byName[name]
		if !ok {
			return nil, nil, fmt.Errorf("dw: fact %q role %q: member %q not found at base level %q of %q",
				fact, ref.Role, name, base.Name, ref.Dimension)
		}
		keys[i] = int32(key)
	}
	vals := make([]float64, len(fd.measures))
	for name, v := range measures {
		i, ok := fd.measureIdx[name]
		if !ok {
			return nil, nil, fmt.Errorf("dw: fact %q has no measure %q", fact, name)
		}
		vals[i] = v
	}
	return keys, vals, nil
}

// FactCount returns the number of rows in a fact table.
func (w *Warehouse) FactCount(fact string) int {
	w.mu.RLock()
	defer w.mu.RUnlock()
	if fd, ok := w.facts[fact]; ok {
		return fd.rows
	}
	return 0
}

// memberNameLocked resolves a surrogate key at a level to its name.
func (w *Warehouse) memberNameLocked(dim, level string, key int) string {
	lt := w.dims[dim].levels[level]
	if key < 0 || key >= len(lt.members) {
		return ""
	}
	return lt.members[key].Name
}
