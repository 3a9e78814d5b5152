package ontology

import (
	"strings"
	"testing"
	"testing/quick"
)

// buildSample constructs a small ontology shaped like the paper's Figure 2.
func buildSample() *Ontology {
	o := New("LastMinuteSales")
	o.Subclass("Airport", "Place")
	o.Subclass("City", "Place")
	o.Subclass("State", "Place")
	o.Subclass("Country", "Place")
	o.AddConcept("Last Minute Sales")
	o.AddAttribute("Last Minute Sales", Attribute{"Price", KindMeasure, "Float"})
	o.AddAttribute("Last Minute Sales", Attribute{"Miles", KindMeasure, "Float"})
	o.AddRelation("Airport", Relation{"locatedIn", "City"})
	o.AddRelation("City", Relation{"locatedIn", "State"})
	o.AddInstance("Airport", Instance{
		Name:       "El Prat",
		Aliases:    []string{"Barcelona-El Prat"},
		Properties: map[string]string{"locatedIn": "Barcelona"},
	})
	o.AddInstance("Airport", Instance{Name: "JFK", Aliases: []string{"Kennedy International Airport"}})
	o.AddInstance("City", Instance{Name: "Barcelona"})
	return o
}

func TestAddAndLookup(t *testing.T) {
	o := buildSample()
	if o.Concept("airport") == nil {
		t.Fatal("lookup must be case-insensitive")
	}
	if o.Concept("Last  Minute   Sales") == nil {
		t.Fatal("lookup must normalise whitespace")
	}
	if o.Concept("nope") != nil {
		t.Error("unknown concept should be nil")
	}
	if got := o.Size(); got != 6 {
		t.Errorf("Size = %d, want 6", got)
	}
	if got := o.InstanceCount(); got != 3 {
		t.Errorf("InstanceCount = %d, want 3", got)
	}
}

func TestAddConceptIdempotent(t *testing.T) {
	o := New("x")
	a := o.AddConcept("Airport")
	b := o.AddConcept("airport")
	if a != b {
		t.Error("AddConcept should be idempotent under normalisation")
	}
}

func TestSubclassAndIsA(t *testing.T) {
	o := buildSample()
	o.Subclass("International Airport", "Airport")
	if !o.IsA("International Airport", "Place") {
		t.Error("IsA should be transitive")
	}
	if !o.IsA("Airport", "Airport") {
		t.Error("IsA should be reflexive")
	}
	if o.IsA("Place", "Airport") {
		t.Error("IsA should not hold upward")
	}
	if o.IsA("ghost", "Place") {
		t.Error("unknown child should not IsA")
	}
}

func TestInstanceMergeOnReAdd(t *testing.T) {
	o := buildSample()
	o.AddInstance("Airport", Instance{
		Name:       "el prat",
		Aliases:    []string{"El Prat de Llobregat"},
		Properties: map[string]string{"iata": "BCN"},
	})
	concept, inst := o.FindInstance("El Prat")
	if concept != "Airport" || inst == nil {
		t.Fatalf("FindInstance(El Prat) = %q,%v", concept, inst)
	}
	if len(inst.Aliases) != 2 {
		t.Errorf("aliases not merged: %v", inst.Aliases)
	}
	if inst.Properties["iata"] != "BCN" || inst.Properties["locatedIn"] != "Barcelona" {
		t.Errorf("properties not merged: %v", inst.Properties)
	}
}

func TestFindInstanceByAlias(t *testing.T) {
	o := buildSample()
	concept, inst := o.FindInstance("Kennedy International Airport")
	if concept != "Airport" || inst == nil || inst.Name != "JFK" {
		t.Errorf("FindInstance by alias = %q,%v", concept, inst)
	}
	if c, i := o.FindInstance("Atlantis"); c != "" || i != nil {
		t.Error("unknown instance should return empty")
	}
}

func TestValidate(t *testing.T) {
	o := buildSample()
	if err := o.Validate(); err != nil {
		t.Fatalf("valid ontology rejected: %v", err)
	}
	// Inject a dangling parent bypassing Subclass's auto-create.
	o.Concept("Airport").Parents = append(o.Concept("Airport").Parents, "Ghost")
	if err := o.Validate(); err == nil {
		t.Error("dangling parent should fail validation")
	}
}

func TestValidateCycle(t *testing.T) {
	o := New("c")
	o.Subclass("A", "B")
	o.Subclass("B", "C")
	// Force a cycle directly.
	o.Concept("C").Parents = append(o.Concept("C").Parents, "A")
	if err := o.Validate(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("cycle not detected: %v", err)
	}
}

func temperatureAxioms(t *testing.T, o *Ontology) {
	t.Helper()
	for _, a := range []Axiom{
		{Concept: "Temperature", Kind: AxiomValueFormat, Units: []string{"ºC", "C", "Celsius", "ºF", "F", "Fahrenheit"}},
		{Concept: "Temperature", Kind: AxiomValueRange, Unit: "C", Min: -90, Max: 60},
		{Concept: "Temperature", Kind: AxiomUnitConversion, FromUnit: "C", ToUnit: "F", Scale: 1.8, Offset: 32},
	} {
		if err := o.AddAxiom(a); err != nil {
			t.Fatalf("AddAxiom: %v", err)
		}
	}
}

func TestAxiomsConvertAndRange(t *testing.T) {
	o := New("ax")
	temperatureAxioms(t, o)

	f, err := o.Convert("Temperature", 8, "C", "F")
	if err != nil || f != 46.4 {
		t.Errorf("Convert(8C→F) = %v,%v want 46.4", f, err)
	}
	c, err := o.Convert("Temperature", 46.4, "F", "C")
	if err != nil || c < 7.999 || c > 8.001 {
		t.Errorf("Convert(46.4F→C) = %v,%v want 8", c, err)
	}
	if _, err := o.Convert("Temperature", 1, "C", "K"); err == nil {
		t.Error("unknown conversion should fail")
	}
	if v, _ := o.Convert("Temperature", 5, "c", "C"); v != 5 {
		t.Error("identity conversion should be a no-op")
	}

	ok, err := o.InRange("Temperature", 8, "C")
	if err != nil || !ok {
		t.Errorf("InRange(8C) = %v,%v", ok, err)
	}
	ok, _ = o.InRange("Temperature", 2000, "C")
	if ok {
		t.Error("2000C should be out of range")
	}
	// Range check with unit conversion: 46.4F is 8C, in range.
	ok, err = o.InRange("Temperature", 46.4, "F")
	if err != nil || !ok {
		t.Errorf("InRange(46.4F) = %v,%v", ok, err)
	}
	// No axioms → always in range.
	ok, _ = o.InRange("Price", 1e12, "EUR")
	if !ok {
		t.Error("concept without range axioms should accept all")
	}
}

func TestAxiomValidation(t *testing.T) {
	o := New("ax")
	bad := []Axiom{
		{Kind: AxiomValueFormat},                                              // no concept
		{Concept: "T", Kind: AxiomValueFormat},                                // no units
		{Concept: "T", Kind: AxiomValueRange, Min: 5, Max: 1},                 // inverted
		{Concept: "T", Kind: AxiomUnitConversion, FromUnit: "C"},              // no target
		{Concept: "T", Kind: AxiomUnitConversion, FromUnit: "C", ToUnit: "F"}, // zero scale
		{Concept: "T", Kind: "bogus"},
	}
	for i, a := range bad {
		if err := o.AddAxiom(a); err == nil {
			t.Errorf("bad axiom %d accepted", i)
		}
	}
}

// Property: Convert is invertible for the linear conversions we declare.
func TestConvertInverseProperty(t *testing.T) {
	o := New("ax")
	temperatureAxioms(t, o)
	f := func(v float64) bool {
		if v != v || v > 1e12 || v < -1e12 { // skip NaN and the extremes
			return true
		}
		fv, err := o.Convert("Temperature", v, "C", "F")
		if err != nil {
			return false
		}
		back, err := o.Convert("Temperature", fv, "F", "C")
		if err != nil {
			return false
		}
		diff := back - v
		return diff < 1e-6 && diff > -1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentUse(t *testing.T) {
	o := buildSample()
	done := make(chan bool)
	go func() {
		for i := 0; i < 200; i++ {
			o.FindInstance("El Prat")
			o.IsA("Airport", "Place")
		}
		done <- true
	}()
	for i := 0; i < 200; i++ {
		o.AddInstance("City", Instance{Name: "Madrid"})
	}
	<-done
}

func BenchmarkFindInstance(b *testing.B) {
	o := buildSample()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.FindInstance("Kennedy International Airport")
	}
}
