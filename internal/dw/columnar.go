package dw

import (
	"fmt"
	"slices"

	"dwqa/internal/mdm"
)

// factData stores one fact table in columnar form: one int32 surrogate-key
// column per role and one float64 column per measure, instead of a map per
// row. The layout keeps the OLAP scan cache-friendly and lets the query
// engine index columns directly by row number. Provenance is a
// dictionary-coded column: every QA-fed row names its source page, but
// pages repeat across rows (a seeded 100k-passage warehouse holds ~30
// rows per distinct page), so each row keeps an int32 code into a table
// of the fact's distinct sources.
type factData struct {
	class *mdm.FactClass

	roles      []string       // role order, mirrors class.Dimensions
	roleIdx    map[string]int // role name → column index
	measureIdx map[string]int // measure name → column index

	coords   [][]int32   // [role column][row] base-level surrogate keys
	measures [][]float64 // [measure column][row] measure values (0 when absent)
	rows     int

	// sources is the provenance dictionary in first-occurrence order;
	// codes holds one index into it per row, noSource for none. Until
	// the first row with a source arrives, sources and codes are both
	// empty, so a fact no row of which carries provenance stores no
	// column. sourceIdx inverts sources for the write path and the
	// probe; it is derived, rebuilt by Import.
	sources   []string
	codes     []int32
	sourceIdx map[string]int32

	// held is the derived set of distinct (coordinates, source code)
	// tuples of the rows that carry a source, behind HasSources — kept
	// current by appendRow, rebuilt by Import and never stored.
	held sourceSet

	// Zone maps: the smallest and largest base key of each role column
	// over every zoneRows-row zone (the last zone may be partial). The
	// compiled plan skips a zone whose key range misses a filter's
	// allowed range. They are derived from coords — kept current by
	// appendRow and rebuilt by rebuildZones — and never stored.
	zoneMin [][]int32 // [role column][zone]
	zoneMax [][]int32 // [role column][zone]
}

// zoneRows is the zone-map granularity. It divides planChunkSize, so a
// plan chunk always covers whole zones; at 512 rows a narrow
// city-month query over the (year, city, month, day)-ordered seeded
// facts reads one to three of their 400 zones.
const zoneRows = 512

func newFactData(class *mdm.FactClass) *factData {
	fd := &factData{
		class:      class,
		roles:      make([]string, len(class.Dimensions)),
		roleIdx:    make(map[string]int, len(class.Dimensions)),
		measureIdx: make(map[string]int, len(class.Measures)),
		coords:     make([][]int32, len(class.Dimensions)),
		measures:   make([][]float64, len(class.Measures)),
		zoneMin:    make([][]int32, len(class.Dimensions)),
		zoneMax:    make([][]int32, len(class.Dimensions)),
		sourceIdx:  make(map[string]int32),
	}
	for i, ref := range class.Dimensions {
		fd.roles[i] = ref.Role
		fd.roleIdx[ref.Role] = i
	}
	for i, m := range class.Measures {
		fd.measureIdx[m.Name] = i
	}
	return fd
}

// noSource is the code of a row that carries no provenance.
const noSource = -1

// appendRow appends one fact row, widens its zone's key ranges and codes
// its provenance, adding a new source to the dictionary. keys must be in
// role-column order and vals in measure-column order.
func (fd *factData) appendRow(keys []int32, vals []float64, prov string) {
	newZone := fd.rows%zoneRows == 0
	for i := range fd.coords {
		k := keys[i]
		fd.coords[i] = append(fd.coords[i], k)
		if newZone {
			fd.zoneMin[i] = append(fd.zoneMin[i], k)
			fd.zoneMax[i] = append(fd.zoneMax[i], k)
			continue
		}
		z := len(fd.zoneMin[i]) - 1
		fd.zoneMin[i][z] = min(fd.zoneMin[i][z], k)
		fd.zoneMax[i][z] = max(fd.zoneMax[i][z], k)
	}
	for i := range fd.measures {
		fd.measures[i] = append(fd.measures[i], vals[i])
	}
	code := int32(noSource)
	if prov != "" {
		c, ok := fd.sourceIdx[prov]
		if !ok {
			if len(fd.sources) == 0 {
				// The first source: every row so far carries none.
				fd.codes = slices.Repeat([]int32{noSource}, fd.rows)
			}
			c = int32(len(fd.sources))
			fd.sources = append(fd.sources, prov)
			fd.sourceIdx[prov] = c
		}
		code = c
	}
	if len(fd.sources) > 0 {
		fd.codes = append(fd.codes, code)
		if code != noSource {
			fd.held.add(fd, keys, fd.rows)
		}
	}
	fd.rows++
}

// rowSource returns the provenance of a row, "" for none.
func (fd *factData) rowSource(row int) string {
	if len(fd.sources) == 0 || fd.codes[row] == noSource {
		return ""
	}
	return fd.sources[fd.codes[row]]
}

// rebuildSources derives the dictionary index and the held set from the
// sources and codes columns — Import's pass after it installs them.
func (fd *factData) rebuildSources() {
	fd.sourceIdx = make(map[string]int32, len(fd.sources))
	for i, s := range fd.sources {
		fd.sourceIdx[s] = int32(i)
	}
	fd.held.build(fd, len(fd.codes), len(fd.codes))
}

// sourceSet is an open-addressing hash set of row numbers, one per
// distinct (coordinates, source code) tuple of a fact: a slot holds a
// row number + 1 (0 is empty), and equality is decided against the
// columns themselves, so the set costs 8 to 16 bytes per held tuple
// whatever the fact's width. Linear probing at a load factor of at most
// 1/2.
type sourceSet struct {
	slots []int32
	n     int
}

// build sizes the set for at least capacity tuples and adds every row
// before end that carries a source.
func (s *sourceSet) build(fd *factData, end, capacity int) {
	size := 16
	for size < 2*capacity {
		size *= 2
	}
	s.slots, s.n = make([]int32, size), 0
	keys := make([]int32, len(fd.coords))
	for r := 0; r < end; r++ {
		if fd.codes[r] == noSource {
			continue
		}
		for c, col := range fd.coords {
			keys[c] = col[r]
		}
		s.insert(fd, keys, r)
	}
}

// tupleHash mixes a row's coordinates and source code (splitmix64
// finaliser per step).
func tupleHash(keys []int32, code int32) uint64 {
	h := uint64(uint32(code))
	for _, k := range keys {
		h = (h ^ uint64(uint32(k))) * 0x9e3779b97f4a7c15
		h ^= h >> 31
	}
	return h
}

// find returns the slot holding the tuple (keys, code), or the empty
// slot where it would go, and whether it was found.
func (s *sourceSet) find(fd *factData, keys []int32, code int32) (int, bool) {
	mask := len(s.slots) - 1
	i := int(tupleHash(keys, code)) & mask
	for ; s.slots[i] != 0; i = (i + 1) & mask {
		r := int(s.slots[i] - 1)
		if fd.codes[r] != code {
			continue
		}
		same := true
		for c, col := range fd.coords {
			if col[r] != keys[c] {
				same = false
				break
			}
		}
		if same {
			return i, true
		}
	}
	return i, false
}

// add records a row that carries a source (its coordinates are keys and
// its code is already in fd.codes) unless an earlier row holds the same
// tuple. A table that would pass half full is rebuilt at twice the size.
func (s *sourceSet) add(fd *factData, keys []int32, row int) {
	if 2*(s.n+1) > len(s.slots) {
		s.build(fd, row, len(s.slots))
	}
	s.insert(fd, keys, row)
}

// insert records row under (keys, its code) unless the tuple is held.
func (s *sourceSet) insert(fd *factData, keys []int32, row int) {
	if i, ok := s.find(fd, keys, fd.codes[row]); !ok {
		s.slots[i] = int32(row + 1)
		s.n++
	}
}

// rebuildZones recomputes every zone map from the coordinate columns —
// Import's one pass after it installs them.
func (fd *factData) rebuildZones() {
	nZones := (fd.rows + zoneRows - 1) / zoneRows
	for i, col := range fd.coords {
		zmin := make([]int32, nZones)
		zmax := make([]int32, nZones)
		for z := range zmin {
			keys := col[z*zoneRows : min((z+1)*zoneRows, fd.rows)]
			zmin[z], zmax[z] = slices.Min(keys), slices.Max(keys)
		}
		fd.zoneMin[i], fd.zoneMax[i] = zmin, zmax
	}
}

// measureColumn returns the column of a measure, or nil when the fact has
// no such measure.
func (fd *factData) measureColumn(name string) []float64 {
	i, ok := fd.measureIdx[name]
	if !ok {
		return nil
	}
	return fd.measures[i]
}

// roleColumn returns the coordinate column of a role, or nil.
func (fd *factData) roleColumn(role string) []int32 {
	i, ok := fd.roleIdx[role]
	if !ok {
		return nil
	}
	return fd.coords[i]
}

// HasSources reports, for each row, whether the fact already holds a row
// at the same coordinates carrying the same provenance (measures are not
// compared). It is the Step 5 loader's dedup probe: one call per commit,
// answered under the read lock from the derived set of (coordinates,
// source code) tuples. A row without provenance, or naming a member or a
// source the warehouse does not hold, is absent; a row missing a role is
// an error.
func (w *Warehouse) HasSources(fact string, rows []FactRow) ([]bool, error) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	fd, ok := w.facts[fact]
	if !ok {
		return nil, fmt.Errorf("dw: unknown fact %q", fact)
	}
	out := make([]bool, len(rows))
	keys := make([]int32, len(fd.roles))
rows:
	for r, row := range rows {
		for i, ref := range fd.class.Dimensions {
			name, ok := row.Coords[ref.Role]
			if !ok {
				return nil, fmt.Errorf("dw: probe row %d: fact %q row missing role %q", r, fact, ref.Role)
			}
			dd := w.dims[ref.Dimension]
			key, ok := dd.levels[dd.class.Base().Name].byName[name]
			if !ok {
				continue rows
			}
			keys[i] = int32(key)
		}
		code, ok := fd.sourceIdx[row.Provenance]
		if !ok {
			continue
		}
		_, out[r] = fd.held.find(fd, keys, code)
	}
	return out, nil
}
