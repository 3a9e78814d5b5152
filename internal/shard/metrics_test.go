package shard_test

import (
	"fmt"
	"testing"

	"dwqa/internal/dw"
	"dwqa/internal/ir"
	"dwqa/internal/mdm"
	"dwqa/internal/obs"
	"dwqa/internal/shard"
)

// TestSetNodeKeepsMetrics: the warehouse work counters reach every
// shard's warehouse, including one a follower reload swaps in after
// SetMetrics.
func TestSetNodeKeepsMetrics(t *testing.T) {
	city := &mdm.DimensionClass{Name: "City", Levels: []*mdm.Level{{Name: "City", Descriptor: "Name"}}}
	schema := mdm.NewSchema("m").AddDimension(city).AddFactClass(&mdm.FactClass{
		Name:       "Weather",
		Measures:   []mdm.Measure{{Name: "TempC", Type: mdm.TypeFloat}},
		Dimensions: []mdm.DimensionRef{{Role: "City", Dimension: "City"}},
	})
	cl, err := shard.NewCluster(schema, 2, map[string]shard.Route{"Weather": {Role: "City", Level: "City"}})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	met := dw.Metrics{RowsScanned: reg.Counter("rows", ""), ZonesPruned: reg.Counter("zones", "")}
	cl.SetMetrics(met)

	var specs []dw.MemberSpec
	var rows []dw.FactRow
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("C%d", i)
		specs = append(specs, dw.MemberSpec{Dim: "City", Level: "City", Name: name})
		rows = append(rows, dw.FactRow{Coords: map[string]string{"City": name}, Measures: map[string]float64{"TempC": float64(i)}})
	}
	if err := cl.AddBatch(specs, "Weather", rows); err != nil {
		t.Fatal(err)
	}
	if n := cl.Node(1).WH.FactCount("Weather"); n == 0 || n == len(rows) {
		t.Fatalf("shard 1 holds %d of %d rows; the test needs both shards populated", n, len(rows))
	}
	q := dw.Query{Fact: "Weather", Measure: "TempC", Agg: dw.Sum}
	scanned := func() uint64 {
		t.Helper()
		before := met.RowsScanned.Value()
		if _, err := cl.Execute(q); err != nil {
			t.Fatal(err)
		}
		return met.RowsScanned.Value() - before
	}
	if got := scanned(); got != uint64(len(rows)) {
		t.Fatalf("scanned %d rows over both shards, want %d", got, len(rows))
	}

	wh, err := dw.New(schema)
	if err != nil {
		t.Fatal(err)
	}
	if err := wh.Import(cl.Node(1).WH.Export()); err != nil {
		t.Fatal(err)
	}
	cl.SetNode(1, &shard.Node{WH: wh, IX: ir.NewIndex()})
	if got := scanned(); got != uint64(len(rows)) {
		t.Errorf("after swapping shard 1's node: scanned %d rows, want %d", got, len(rows))
	}
}
