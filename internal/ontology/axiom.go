package ontology

import "fmt"

// AxiomKind distinguishes the axiom flavours the paper's Step 4 attaches
// to answer-type concepts ("the temperature concept in the ontology is
// updated with the axiomatic information that is required in a temperature
// answer: that a temperature is composed by a number followed by the scale
// (Celsius or Fahrenheit), the right temperature intervals, the conversion
// formulae between Celsius and Fahrenheit scales, etc.").
type AxiomKind string

// Axiom kinds.
const (
	AxiomValueFormat    AxiomKind = "value-format"    // number followed by a unit
	AxiomValueRange     AxiomKind = "value-range"     // valid interval in a unit
	AxiomUnitConversion AxiomKind = "unit-conversion" // linear unit conversion
)

// Axiom is machine-usable domain knowledge attached to a concept. Both the
// QA answer extractor (candidate filtering) and the Step 5 ETL (record
// validation) consume axioms — the double use the paper describes.
type Axiom struct {
	Concept string    // owning concept, e.g. "Temperature"
	Kind    AxiomKind // which flavour
	// ValueFormat / ValueRange fields.
	Units []string // acceptable unit spellings, e.g. ºC, C, Celsius
	Unit  string   // unit the Min/Max interval is expressed in
	Min   float64
	Max   float64
	// UnitConversion fields: to = from*Scale + Offset.
	FromUnit string
	ToUnit   string
	Scale    float64
	Offset   float64
}

// AddAxiom attaches an axiom to its owning concept (created if absent).
// Re-adding an axiom that is already present is a no-op, so the Step 4
// tuning can run again over a recovered ontology without duplicating
// knowledge.
func (o *Ontology) AddAxiom(a Axiom) error {
	if a.Concept == "" {
		return fmt.Errorf("ontology: axiom without concept")
	}
	switch a.Kind {
	case AxiomValueFormat:
		if len(a.Units) == 0 {
			return fmt.Errorf("ontology: value-format axiom for %q needs units", a.Concept)
		}
	case AxiomValueRange:
		if a.Min > a.Max {
			return fmt.Errorf("ontology: value-range axiom for %q has min > max", a.Concept)
		}
	case AxiomUnitConversion:
		if a.FromUnit == "" || a.ToUnit == "" {
			return fmt.Errorf("ontology: unit-conversion axiom for %q needs both units", a.Concept)
		}
		if a.Scale == 0 {
			return fmt.Errorf("ontology: unit-conversion axiom for %q has zero scale", a.Concept)
		}
	default:
		return fmt.Errorf("ontology: unknown axiom kind %q", a.Kind)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	c := o.addConceptLocked(a.Concept)
	for _, existing := range c.Axioms {
		if axiomsEqual(existing, a) {
			return nil
		}
	}
	c.Axioms = append(c.Axioms, a)
	return nil
}

// axiomsEqual reports whether two axioms carry identical knowledge.
func axiomsEqual(a, b Axiom) bool {
	if a.Concept != b.Concept || a.Kind != b.Kind ||
		a.Unit != b.Unit || a.Min != b.Min || a.Max != b.Max ||
		a.FromUnit != b.FromUnit || a.ToUnit != b.ToUnit ||
		a.Scale != b.Scale || a.Offset != b.Offset ||
		len(a.Units) != len(b.Units) {
		return false
	}
	for i := range a.Units {
		if a.Units[i] != b.Units[i] {
			return false
		}
	}
	return true
}

// AxiomsFor returns the axioms of the given kind on a concept.
func (o *Ontology) AxiomsFor(concept string, kind AxiomKind) []Axiom {
	c := o.Concept(concept)
	if c == nil {
		return nil
	}
	o.mu.RLock()
	defer o.mu.RUnlock()
	var out []Axiom
	for _, a := range c.Axioms {
		if a.Kind == kind {
			out = append(out, a)
		}
	}
	return out
}

// Convert applies a unit-conversion axiom chain on the concept to express
// value (given in fromUnit) in toUnit. It tries a direct axiom, then the
// inverse of a declared axiom. Returns an error when no conversion exists.
func (o *Ontology) Convert(concept string, value float64, fromUnit, toUnit string) (float64, error) {
	if c := o.Concept(concept); c != nil {
		o.mu.RLock()
		v, ok := convertLocked(c, value, fromUnit, toUnit)
		o.mu.RUnlock()
		if ok {
			return v, nil
		}
	} else if equalNormalized(fromUnit, toUnit) {
		return value, nil
	}
	return 0, fmt.Errorf("ontology: no conversion from %q to %q on %q", fromUnit, toUnit, concept)
}

// convertLocked resolves a conversion against the concept's axioms. The
// caller holds at least the read lock; nothing is allocated — this runs
// once per answer candidate under QA's axiom validation.
func convertLocked(c *Concept, value float64, fromUnit, toUnit string) (float64, bool) {
	if equalNormalized(fromUnit, toUnit) {
		return value, true
	}
	for i := range c.Axioms {
		a := &c.Axioms[i]
		if a.Kind != AxiomUnitConversion {
			continue
		}
		if equalNormalized(a.FromUnit, fromUnit) && equalNormalized(a.ToUnit, toUnit) {
			return value*a.Scale + a.Offset, true
		}
		if equalNormalized(a.FromUnit, toUnit) && equalNormalized(a.ToUnit, fromUnit) {
			return (value - a.Offset) / a.Scale, true
		}
	}
	return 0, false
}

// InRange checks value (in unit) against the concept's value-range axioms,
// converting units when necessary. With no range axiom it returns true.
// The axiom walk and unit comparisons are in place and allocation-free —
// this is the QA extractor's per-candidate validation call.
func (o *Ontology) InRange(concept string, value float64, unit string) (bool, error) {
	c := o.Concept(concept)
	if c == nil {
		return true, nil
	}
	o.mu.RLock()
	defer o.mu.RUnlock()
	sawRange := false
	for i := range c.Axioms {
		a := &c.Axioms[i]
		if a.Kind != AxiomValueRange {
			continue
		}
		sawRange = true
		v := value
		if !equalNormalized(unit, a.Unit) {
			converted, ok := convertLocked(c, value, unit, a.Unit)
			if !ok {
				return false, fmt.Errorf("ontology: no conversion from %q to %q on %q", unit, a.Unit, concept)
			}
			v = converted
		}
		if v >= a.Min && v <= a.Max {
			return true, nil
		}
	}
	return !sawRange, nil
}
