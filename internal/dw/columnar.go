package dw

import (
	"fmt"
	"slices"

	"dwqa/internal/mdm"
)

// factData stores one fact table in columnar form: one int32 surrogate-key
// column per role and one float64 column per measure, instead of a map per
// row. The layout keeps the OLAP scan cache-friendly and lets the query
// engine index columns directly by row number. Provenance (rare: only
// QA-fed rows carry it) lives in a sparse sidecar keyed by row number.
type factData struct {
	class *mdm.FactClass

	roles      []string       // role order, mirrors class.Dimensions
	roleIdx    map[string]int // role name → column index
	measureIdx map[string]int // measure name → column index

	coords     [][]int32   // [role column][row] base-level surrogate keys
	measures   [][]float64 // [measure column][row] measure values (0 when absent)
	provenance map[int]string
	rows       int

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

// appendRow appends one fact row and widens its zone's key ranges. keys
// must be in role-column order and vals in measure-column order.
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
	if prov != "" {
		if fd.provenance == nil {
			fd.provenance = make(map[int]string)
		}
		fd.provenance[fd.rows] = prov
	}
	fd.rows++
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
	return fd.provenance[row], nil
}
