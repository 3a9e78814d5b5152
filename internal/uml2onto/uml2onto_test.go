package uml2onto

import (
	"testing"

	"dwqa/internal/mdm"
	"dwqa/internal/ontology"
)

func schema() *mdm.Schema {
	return mdm.NewSchema("LastMinuteSales").
		AddDimension(&mdm.DimensionClass{
			Name: "Airport",
			Levels: []*mdm.Level{
				{Name: "Airport", Descriptor: "Name", RollsUpTo: "City",
					Attributes: []mdm.Attribute{{Name: "IATA", Type: mdm.TypeString}}},
				{Name: "City", Descriptor: "Name", RollsUpTo: "State"},
				{Name: "State", Descriptor: "Name"},
			},
		}).
		AddDimension(&mdm.DimensionClass{
			Name: "Date",
			Levels: []*mdm.Level{
				{Name: "Day", Descriptor: "Date", RollsUpTo: "Month"},
				{Name: "Month", Descriptor: "Name"},
			},
		}).
		AddFactClass(&mdm.FactClass{
			Name: "Last Minute Sales",
			Measures: []mdm.Measure{
				{Name: "Price", Type: mdm.TypeFloat},
				{Name: "Miles", Type: mdm.TypeFloat},
			},
			Dimensions: []mdm.DimensionRef{
				{Role: "Destination", Dimension: "Airport"},
				{Role: "Date", Dimension: "Date"},
			},
		})
}

func TestTransformConcepts(t *testing.T) {
	o, err := Transform(schema())
	if err != nil {
		t.Fatalf("Transform: %v", err)
	}
	// Figure 2 concepts: every level and the fact.
	for _, want := range []string{"Airport", "City", "State", "Day", "Month", "Last Minute Sales"} {
		if o.Concept(want) == nil {
			t.Errorf("missing concept %q", want)
		}
	}
	if got, want := o.Size(), 6; got != want {
		t.Errorf("Size = %d, want %d", got, want)
	}
}

func TestTransformRelations(t *testing.T) {
	o, err := Transform(schema())
	if err != nil {
		t.Fatal(err)
	}
	airport := o.Concept("Airport")
	foundLoc := false
	for _, r := range airport.Relations {
		if r.Name == RollUpRelation && r.Target == "City" {
			foundLoc = true
		}
	}
	if !foundLoc {
		t.Error("Airport should be locatedIn City")
	}
	fact := o.Concept("Last Minute Sales")
	foundDim := false
	for _, r := range fact.Relations {
		if r.Name == AnalyzedByRelation+":Destination" && r.Target == "Airport" {
			foundDim = true
		}
	}
	if !foundDim {
		t.Errorf("fact should be analyzedBy:Destination Airport, has %v", fact.Relations)
	}
}

func TestTransformAttributes(t *testing.T) {
	o, err := Transform(schema())
	if err != nil {
		t.Fatal(err)
	}
	fact := o.Concept("Last Minute Sales")
	measures := 0
	for _, a := range fact.Attributes {
		if a.Kind == ontology.KindMeasure {
			measures++
		}
	}
	if measures != 2 {
		t.Errorf("fact has %d measures, want 2 (Price, Miles)", measures)
	}
	airport := o.Concept("Airport")
	hasIATA, hasDescriptor := false, false
	for _, a := range airport.Attributes {
		if a.Name == "IATA" && a.Kind == ontology.KindAttribute {
			hasIATA = true
		}
		if a.Name == "Name" && a.Kind == ontology.KindDescriptor {
			hasDescriptor = true
		}
	}
	if !hasIATA || !hasDescriptor {
		t.Errorf("airport attributes incomplete: %v", airport.Attributes)
	}
}

func TestTransformRejectsInvalidSchema(t *testing.T) {
	bad := mdm.NewSchema("bad").AddFactClass(&mdm.FactClass{Name: "F"})
	if _, err := Transform(bad); err == nil {
		t.Error("invalid schema accepted")
	}
}

func TestTransformOutputValidates(t *testing.T) {
	o, err := Transform(schema())
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Validate(); err != nil {
		t.Errorf("transformed ontology invalid: %v", err)
	}
}
