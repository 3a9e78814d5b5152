package mdm

import (
	"strings"
	"testing"
)

func validSchema() *Schema {
	return NewSchema("s").
		AddDimension(&DimensionClass{
			Name: "Airport",
			Levels: []*Level{
				{Name: "Airport", Descriptor: "Name", RollsUpTo: "City",
					Attributes: []Attribute{{Name: "IATA", Type: TypeString}}},
				{Name: "City", Descriptor: "Name", RollsUpTo: "Country"},
				{Name: "Country", Descriptor: "Name"},
			},
		}).
		AddFactClass(&FactClass{
			Name:     "Sales",
			Measures: []Measure{{Name: "Price", Type: TypeFloat}},
			Dimensions: []DimensionRef{
				{Role: "Departure", Dimension: "Airport"},
				{Role: "Destination", Dimension: "Airport"},
			},
		})
}

func TestValidateOK(t *testing.T) {
	if err := validSchema().Validate(); err != nil {
		t.Fatalf("valid schema rejected: %v", err)
	}
}

func TestValidateFailures(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Schema)
		want   string
	}{
		{"empty dim name", func(s *Schema) { s.Dimensions[0].Name = "" }, "empty name"},
		{"dup dimension", func(s *Schema) { s.AddDimension(&DimensionClass{Name: "Airport", Levels: s.Dimensions[0].Levels}) }, "duplicate dimension"},
		{"no levels", func(s *Schema) { s.Dimensions[0].Levels = nil }, "no levels"},
		{"dup level", func(s *Schema) {
			s.Dimensions[0].Levels = append(s.Dimensions[0].Levels, &Level{Name: "City", Descriptor: "Name"})
		}, "duplicate level"},
		{"no descriptor", func(s *Schema) { s.Dimensions[0].Levels[0].Descriptor = "" }, "lacks a descriptor"},
		{"bad rollup", func(s *Schema) { s.Dimensions[0].Levels[1].RollsUpTo = "Planet" }, "unknown"},
		{"rollup cycle", func(s *Schema) { s.Dimensions[0].Levels[2].RollsUpTo = "Airport" }, "cycle"},
		{"unreachable level", func(s *Schema) {
			s.Dimensions[0].Levels = append(s.Dimensions[0].Levels, &Level{Name: "Region", Descriptor: "Name"})
		}, "unreachable"},
		{"fact no measures", func(s *Schema) { s.Facts[0].Measures = nil }, "no measures"},
		{"fact no dims", func(s *Schema) { s.Facts[0].Dimensions = nil }, "no dimensions"},
		{"dup role", func(s *Schema) { s.Facts[0].Dimensions[1].Role = "Departure" }, "duplicate role"},
		{"unknown dim ref", func(s *Schema) { s.Facts[0].Dimensions[0].Dimension = "Ghost" }, "unknown dimension"},
		{"dup fact", func(s *Schema) { s.AddFactClass(s.Facts[0]) }, "duplicate fact"},
	}
	for _, c := range cases {
		s := validSchema()
		c.mutate(s)
		err := s.Validate()
		if err == nil {
			t.Errorf("%s: invalid schema accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestPathTo(t *testing.T) {
	d := validSchema().Dimension("Airport")
	if got := strings.Join(d.PathTo("Country"), ">"); got != "Airport>City>Country" {
		t.Errorf("PathTo(Country) = %s", got)
	}
	if got := strings.Join(d.PathTo("Airport"), ">"); got != "Airport" {
		t.Errorf("PathTo(Airport) = %s", got)
	}
	if d.PathTo("Planet") != nil {
		t.Error("PathTo(unknown) should be nil")
	}
}

func TestAccessors(t *testing.T) {
	s := validSchema()
	if s.Dimension("Airport") == nil || s.Dimension("Ghost") != nil {
		t.Error("Dimension accessor broken")
	}
	if s.Fact("Sales") == nil || s.Fact("Ghost") != nil {
		t.Error("Fact accessor broken")
	}
	f := s.Fact("Sales")
	if f.Measure("Price") == nil || f.Measure("Ghost") != nil {
		t.Error("Measure accessor broken")
	}
	if f.Ref("Departure") == nil || f.Ref("Ghost") != nil {
		t.Error("Ref accessor broken")
	}
	d := s.Dimension("Airport")
	if d.Base().Name != "Airport" {
		t.Error("Base should be the first level")
	}
	if d.Level("City") == nil || d.Level("Ghost") != nil {
		t.Error("Level accessor broken")
	}
	empty := &DimensionClass{Name: "E"}
	if empty.Base() != nil {
		t.Error("Base of empty dimension should be nil")
	}
}

func TestDescribe(t *testing.T) {
	out := validSchema().Describe()
	for _, want := range []string{"Fact Sales", "measure Price: Float", "dimension Destination: Airport", "Airport -> City -> Country"} {
		if !strings.Contains(out, want) {
			t.Errorf("Describe missing %q in:\n%s", want, out)
		}
	}
}
