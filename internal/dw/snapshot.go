package dw

import "fmt"

// This file is the warehouse half of the durability subsystem
// (internal/store): bulk export and import of the columnar state, the
// redo-journal hook that records committed write batches, and the
// accessors recovery and its tests read (Counts, ScanFact).

// LevelSnapshot is the exported form of one dimension level table: the
// member rows in surrogate-key order (Member.Key == slice index), which is
// exactly the invariant Import relies on to restore the byName map in one
// pass.
type LevelSnapshot struct {
	Level   string
	Members []Member
}

// DimensionSnapshot is the exported form of one dimension: its level
// tables in schema order.
type DimensionSnapshot struct {
	Dim    string
	Levels []LevelSnapshot
}

// FactSnapshot is the exported form of one fact table: the raw columns of
// the columnar store (coords in role order, measures in measure order)
// plus the dictionary-coded provenance column.
type FactSnapshot struct {
	Fact        string
	Rows        int
	Coords      [][]int32   // [role column][row], role order = schema order
	Measures    [][]float64 // [measure column][row], measure order = schema order
	Sources     []string    // distinct provenance strings, first-occurrence order
	SourceCodes []int32     // [row] index into Sources, -1 for none; empty when Sources is empty
}

// Snapshot is a point-in-time copy of the warehouse contents (not the
// schema — the schema is code and both sides of a snapshot round-trip
// must be built for the same one). Produced by Export, consumed by
// Import; internal/store gives it a binary encoding.
type Snapshot struct {
	Dims  []DimensionSnapshot
	Facts []FactSnapshot
}

// Export copies the full warehouse contents into a Snapshot under the
// read lock. Dimension, level, fact, role and measure order follow the
// schema, so exporting the same state always yields the same snapshot.
// The copy is deep: later warehouse writes do not mutate it.
func (w *Warehouse) Export() *Snapshot {
	w.mu.RLock()
	defer w.mu.RUnlock()
	snap := &Snapshot{}
	for _, dc := range w.schema.Dimensions {
		dd := w.dims[dc.Name]
		ds := DimensionSnapshot{Dim: dc.Name}
		for _, lvl := range dc.Levels {
			lt := dd.levels[lvl.Name]
			members := make([]Member, len(lt.members))
			for i, m := range lt.members {
				cp := m
				cp.Attrs = nil // empty and nil attrs export identically
				if len(m.Attrs) > 0 {
					cp.Attrs = make(map[string]string, len(m.Attrs))
					for k, v := range m.Attrs {
						cp.Attrs[k] = v
					}
				}
				members[i] = cp
			}
			ds.Levels = append(ds.Levels, LevelSnapshot{Level: lvl.Name, Members: members})
		}
		snap.Dims = append(snap.Dims, ds)
	}
	for _, fc := range w.schema.Facts {
		fd := w.facts[fc.Name]
		fs := FactSnapshot{Fact: fc.Name, Rows: fd.rows}
		fs.Coords = make([][]int32, len(fd.coords))
		for i, col := range fd.coords {
			fs.Coords[i] = append([]int32(nil), col...)
		}
		fs.Measures = make([][]float64, len(fd.measures))
		for i, col := range fd.measures {
			fs.Measures[i] = append([]float64(nil), col...)
		}
		fs.Sources = append([]string(nil), fd.sources...)
		fs.SourceCodes = append([]int32(nil), fd.codes...)
		snap.Facts = append(snap.Facts, fs)
	}
	return snap
}

// Import replaces the warehouse contents with a snapshot in one bulk
// column load: member slices and fact columns are installed wholesale
// (the byName maps are rebuilt in a single pass per level), never
// row-at-a-time through the insert path. The warehouse must have been
// built for the same schema the snapshot was exported from; every shape
// mismatch (unknown dimension or fact, wrong column count, ragged column
// lengths, out-of-range keys) fails loudly before anything is installed,
// so a bad snapshot never half-loads.
func (w *Warehouse) Import(snap *Snapshot) error {
	w.mu.Lock()
	defer w.mu.Unlock()

	// Validate everything first: Import is all-or-nothing. levelSize
	// indexes the snapshot's own tables so parent links and fact
	// coordinates can be bounds-checked against the state being
	// installed.
	levelSize := map[string]int{} // "dim\x00level" → member count
	for _, ds := range snap.Dims {
		for _, ls := range ds.Levels {
			levelSize[ds.Dim+"\x00"+ls.Level] = len(ls.Members)
		}
	}
	for _, ds := range snap.Dims {
		dd, ok := w.dims[ds.Dim]
		if !ok {
			return fmt.Errorf("dw: import: unknown dimension %q", ds.Dim)
		}
		for _, ls := range ds.Levels {
			if _, ok := dd.levels[ls.Level]; !ok {
				return fmt.Errorf("dw: import: unknown level %q of dimension %q", ls.Level, ds.Dim)
			}
			lvl := dd.class.Level(ls.Level)
			parentSize := 0
			if lvl.RollsUpTo != "" {
				parentSize = levelSize[ds.Dim+"\x00"+lvl.RollsUpTo]
			}
			for i, m := range ls.Members {
				if m.Key != i {
					return fmt.Errorf("dw: import: %s.%s member %d has key %d (surrogate keys must be dense)",
						ds.Dim, ls.Level, i, m.Key)
				}
				if m.Name == "" {
					return fmt.Errorf("dw: import: %s.%s member %d has empty name", ds.Dim, ls.Level, i)
				}
				if m.Parent != NoParent {
					if lvl.RollsUpTo == "" {
						return fmt.Errorf("dw: import: %s.%s member %q has parent %d but the level is the hierarchy top",
							ds.Dim, ls.Level, m.Name, m.Parent)
					}
					if m.Parent < 0 || m.Parent >= parentSize {
						return fmt.Errorf("dw: import: %s.%s member %q parent key %d out of range (level %q has %d members)",
							ds.Dim, ls.Level, m.Name, m.Parent, lvl.RollsUpTo, parentSize)
					}
				}
			}
		}
	}
	for _, fs := range snap.Facts {
		fd, ok := w.facts[fs.Fact]
		if !ok {
			return fmt.Errorf("dw: import: unknown fact %q", fs.Fact)
		}
		if len(fs.Coords) != len(fd.roles) {
			return fmt.Errorf("dw: import: fact %q has %d coordinate columns, schema wants %d",
				fs.Fact, len(fs.Coords), len(fd.roles))
		}
		if len(fs.Measures) != len(fd.measures) {
			return fmt.Errorf("dw: import: fact %q has %d measure columns, schema wants %d",
				fs.Fact, len(fs.Measures), len(fd.measures))
		}
		for i, col := range fs.Coords {
			if len(col) != fs.Rows {
				return fmt.Errorf("dw: import: fact %q coordinate column %d has %d rows, expected %d",
					fs.Fact, i, len(col), fs.Rows)
			}
			ref := fd.class.Dimensions[i]
			baseSize := levelSize[ref.Dimension+"\x00"+w.dims[ref.Dimension].class.Base().Name]
			for r, key := range col {
				if int(key) < 0 || int(key) >= baseSize {
					return fmt.Errorf("dw: import: fact %q row %d role %q key %d out of range (base level has %d members)",
						fs.Fact, r, ref.Role, key, baseSize)
				}
			}
		}
		for i, col := range fs.Measures {
			if len(col) != fs.Rows {
				return fmt.Errorf("dw: import: fact %q measure column %d has %d rows, expected %d",
					fs.Fact, i, len(col), fs.Rows)
			}
		}
		wantCodes := fs.Rows
		if len(fs.Sources) == 0 {
			wantCodes = 0
		}
		if len(fs.SourceCodes) != wantCodes {
			return fmt.Errorf("dw: import: fact %q source code column has %d rows with %d sources, expected %d",
				fs.Fact, len(fs.SourceCodes), len(fs.Sources), wantCodes)
		}
		seen := make(map[string]bool, len(fs.Sources))
		for i, src := range fs.Sources {
			if src == "" || seen[src] {
				return fmt.Errorf("dw: import: fact %q source %d is empty or repeated (%q)", fs.Fact, i, src)
			}
			seen[src] = true
		}
		for r, code := range fs.SourceCodes {
			if code < noSource || int(code) >= len(fs.Sources) {
				return fmt.Errorf("dw: import: fact %q row %d source code %d out of range (%d sources)",
					fs.Fact, r, code, len(fs.Sources))
			}
		}
	}

	// Install: bulk slice loads, maps rebuilt in one pass each.
	for _, ds := range snap.Dims {
		dd := w.dims[ds.Dim]
		for _, ls := range ds.Levels {
			lt := dd.levels[ls.Level]
			lt.members = append([]Member(nil), ls.Members...)
			lt.byName = make(map[string]int, len(ls.Members))
			for i := range lt.members {
				m := &lt.members[i]
				m.Attrs = nil
				if len(ls.Members[i].Attrs) > 0 {
					attrs := make(map[string]string, len(ls.Members[i].Attrs))
					for k, v := range ls.Members[i].Attrs {
						attrs[k] = v
					}
					m.Attrs = attrs
				}
				lt.byName[m.Name] = m.Key
			}
		}
	}
	for _, fs := range snap.Facts {
		fd := w.facts[fs.Fact]
		for i, col := range fs.Coords {
			fd.coords[i] = append([]int32(nil), col...)
		}
		for i, col := range fs.Measures {
			fd.measures[i] = append([]float64(nil), col...)
		}
		fd.sources = append([]string(nil), fs.Sources...)
		fd.codes = append([]int32(nil), fs.SourceCodes...)
		fd.rows = fs.Rows
		fd.rebuildZones()
		fd.rebuildSources()
	}
	w.invalidateRollups()
	return nil
}

// Counts returns the total number of dimension members and fact rows —
// the sizing figures the serving stats and recovery logs report.
func (w *Warehouse) Counts() (members, factRows int) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	for _, dd := range w.dims {
		for _, lt := range dd.levels {
			members += len(lt.members)
		}
	}
	for _, fd := range w.facts {
		factRows += fd.rows
	}
	return members, factRows
}

// ScanFact calls fn for every row of a fact with the base-level member
// names of the requested roles (in the given order) and the row's
// provenance string. The names slice is reused across calls; copy it if
// it must outlive fn.
func (w *Warehouse) ScanFact(fact string, roles []string, fn func(row int, names []string, provenance string) error) error {
	w.mu.RLock()
	defer w.mu.RUnlock()
	fd, ok := w.facts[fact]
	if !ok {
		return fmt.Errorf("dw: unknown fact %q", fact)
	}
	cols := make([][]int32, len(roles))
	tables := make([]*levelTable, len(roles))
	for i, role := range roles {
		ri, ok := fd.roleIdx[role]
		if !ok {
			return fmt.Errorf("dw: fact %q has no role %q", fact, role)
		}
		cols[i] = fd.coords[ri]
		ref := fd.class.Dimensions[ri]
		dd := w.dims[ref.Dimension]
		tables[i] = dd.levels[dd.class.Base().Name]
	}
	names := make([]string, len(roles))
	for row := 0; row < fd.rows; row++ {
		for i := range roles {
			key := int(cols[i][row])
			if key < 0 || key >= len(tables[i].members) {
				return fmt.Errorf("dw: fact %q row %d role %q: key %d out of range", fact, row, roles[i], key)
			}
			names[i] = tables[i].members[key].Name
		}
		if err := fn(row, names, fd.rowSource(row)); err != nil {
			return err
		}
	}
	return nil
}
