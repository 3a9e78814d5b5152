package core

import "testing"

// TestBuildScaledWarehouseReachesTarget pins the scale search: a target
// above the unscaled generator's row count forces the demand multiplier
// loop, and the result must actually meet the floor. Determinism given
// the seed rides along (two builds, identical row counts).
func TestBuildScaledWarehouseReachesTarget(t *testing.T) {
	probe, err := BuildScaledWarehouse(1, 42)
	if err != nil {
		t.Fatal(err)
	}
	base := probe.FactCount("LastMinuteSales")
	if base == 0 {
		t.Fatal("unscaled scenario generated no sales rows")
	}

	target := base*3 + 1
	wh, err := BuildScaledWarehouse(target, 42)
	if err != nil {
		t.Fatal(err)
	}
	if got := wh.FactCount("LastMinuteSales"); got < target {
		t.Fatalf("scaled warehouse has %d rows, want >= %d", got, target)
	}
	again, err := BuildScaledWarehouse(target, 42)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := again.FactCount("LastMinuteSales"), wh.FactCount("LastMinuteSales"); got != want {
		t.Fatalf("same seed built %d rows then %d", want, got)
	}
}
