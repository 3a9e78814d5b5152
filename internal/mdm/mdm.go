// Package mdm implements the multidimensional model used to design the
// data warehouse, following the UML profile of Luján-Mora, Trujillo & Song
// (reference [10] of the paper): facts described by measures, analysed
// through dimensions whose levels are organised in roll-up hierarchies,
// each level carrying an OID, a Descriptor and dimension attributes.
//
// The paper's Figure 1 (the Last Minute Sales excerpt) is an instance of
// this metamodel; Step 1 of the integration derives the domain ontology
// from it (see package uml2onto).
package mdm

import (
	"fmt"
	"sort"
)

// ValueType is the datatype of a measure or attribute.
type ValueType string

// Supported value types.
const (
	TypeFloat  ValueType = "Float"
	TypeInt    ValueType = "Int"
	TypeString ValueType = "String"
	TypeDate   ValueType = "Date"
)

// Measure is a fact attribute that can be aggregated (stereotype FA in the
// UML profile), e.g. Price or Miles.
type Measure struct {
	Name string
	Type ValueType
}

// Attribute is a non-identifier attribute of a dimension level
// (stereotype DA), e.g. the population of a City.
type Attribute struct {
	Name string
	Type ValueType
}

// Level is one aggregation level of a dimension hierarchy (stereotype
// Base), e.g. Airport, City, State, Country. RollsUpTo names the next
// coarser level ("" for the hierarchy top).
type Level struct {
	Name       string
	Descriptor string // descriptor attribute name (stereotype D)
	Attributes []Attribute
	RollsUpTo  string
}

// DimensionClass is a dimension (stereotype Dimension) with its hierarchy
// of levels ordered base-first.
type DimensionClass struct {
	Name   string
	Levels []*Level
}

// Base returns the finest-grained level of the dimension (the first one).
func (d *DimensionClass) Base() *Level {
	if len(d.Levels) == 0 {
		return nil
	}
	return d.Levels[0]
}

// Level returns the level with the given name, or nil.
func (d *DimensionClass) Level(name string) *Level {
	for _, l := range d.Levels {
		if l.Name == name {
			return l
		}
	}
	return nil
}

// PathTo returns the chain of level names from the base level up to (and
// including) the named level, or nil when the level does not exist on the
// roll-up path.
func (d *DimensionClass) PathTo(level string) []string {
	base := d.Base()
	if base == nil {
		return nil
	}
	var path []string
	cur := base
	for cur != nil {
		path = append(path, cur.Name)
		if cur.Name == level {
			return path
		}
		if cur.RollsUpTo == "" {
			return nil
		}
		cur = d.Level(cur.RollsUpTo)
	}
	return nil
}

// DimensionRef binds a fact to a dimension under a role name. A fact may
// reference the same dimension twice under different roles — the paper's
// Airport dimension plays both the Departure and Destination roles.
type DimensionRef struct {
	Role      string
	Dimension string
}

// FactClass is a fact (stereotype Fact) with measures and dimension
// references, e.g. Last Minute Sales.
type FactClass struct {
	Name       string
	Measures   []Measure
	Dimensions []DimensionRef
}

// Measure returns the measure with the given name, or nil.
func (f *FactClass) Measure(name string) *Measure {
	for i := range f.Measures {
		if f.Measures[i].Name == name {
			return &f.Measures[i]
		}
	}
	return nil
}

// Ref returns the dimension reference with the given role, or nil.
func (f *FactClass) Ref(role string) *DimensionRef {
	for i := range f.Dimensions {
		if f.Dimensions[i].Role == role {
			return &f.Dimensions[i]
		}
	}
	return nil
}

// Schema is a complete multidimensional model: a set of facts and the
// dimensions they are analysed by.
type Schema struct {
	Name       string
	Facts      []*FactClass
	Dimensions []*DimensionClass
}

// NewSchema returns an empty schema.
func NewSchema(name string) *Schema { return &Schema{Name: name} }

// AddDimension appends a dimension; levels must be ordered base-first and
// each level's RollsUpTo must point at a later level in the slice (checked
// by Validate).
func (s *Schema) AddDimension(d *DimensionClass) *Schema {
	s.Dimensions = append(s.Dimensions, d)
	return s
}

// AddFactClass appends a fact class.
func (s *Schema) AddFactClass(f *FactClass) *Schema {
	s.Facts = append(s.Facts, f)
	return s
}

// Dimension returns the dimension with the given name, or nil.
func (s *Schema) Dimension(name string) *DimensionClass {
	for _, d := range s.Dimensions {
		if d.Name == name {
			return d
		}
	}
	return nil
}

// Fact returns the fact with the given name, or nil.
func (s *Schema) Fact(name string) *FactClass {
	for _, f := range s.Facts {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Validate checks the structural invariants of the model: unique names,
// non-empty hierarchies, acyclic roll-up chains reaching the top, and fact
// references to existing dimensions with unique roles.
func (s *Schema) Validate() error {
	dimNames := map[string]bool{}
	for _, d := range s.Dimensions {
		if d.Name == "" {
			return fmt.Errorf("mdm %s: dimension with empty name", s.Name)
		}
		if dimNames[d.Name] {
			return fmt.Errorf("mdm %s: duplicate dimension %q", s.Name, d.Name)
		}
		dimNames[d.Name] = true
		if len(d.Levels) == 0 {
			return fmt.Errorf("mdm %s: dimension %q has no levels", s.Name, d.Name)
		}
		levelNames := map[string]bool{}
		for _, l := range d.Levels {
			if l.Name == "" {
				return fmt.Errorf("mdm %s: dimension %q has a level with empty name", s.Name, d.Name)
			}
			if levelNames[l.Name] {
				return fmt.Errorf("mdm %s: dimension %q has duplicate level %q", s.Name, d.Name, l.Name)
			}
			levelNames[l.Name] = true
			if l.Descriptor == "" {
				return fmt.Errorf("mdm %s: level %q of %q lacks a descriptor", s.Name, l.Name, d.Name)
			}
		}
		// The roll-up chain from the base must visit levels without cycles
		// and terminate at a top level.
		seen := map[string]bool{}
		cur := d.Base()
		for {
			if seen[cur.Name] {
				return fmt.Errorf("mdm %s: roll-up cycle in dimension %q at %q", s.Name, d.Name, cur.Name)
			}
			seen[cur.Name] = true
			if cur.RollsUpTo == "" {
				break
			}
			next := d.Level(cur.RollsUpTo)
			if next == nil {
				return fmt.Errorf("mdm %s: level %q of %q rolls up to unknown %q", s.Name, cur.Name, d.Name, cur.RollsUpTo)
			}
			cur = next
		}
		// Every level must be reachable from the base.
		for _, l := range d.Levels {
			if !seen[l.Name] {
				return fmt.Errorf("mdm %s: level %q of %q unreachable from base", s.Name, l.Name, d.Name)
			}
		}
	}
	factNames := map[string]bool{}
	for _, f := range s.Facts {
		if f.Name == "" {
			return fmt.Errorf("mdm %s: fact with empty name", s.Name)
		}
		if factNames[f.Name] {
			return fmt.Errorf("mdm %s: duplicate fact %q", s.Name, f.Name)
		}
		factNames[f.Name] = true
		if len(f.Measures) == 0 {
			return fmt.Errorf("mdm %s: fact %q has no measures", s.Name, f.Name)
		}
		if len(f.Dimensions) == 0 {
			return fmt.Errorf("mdm %s: fact %q has no dimensions", s.Name, f.Name)
		}
		roles := map[string]bool{}
		for _, ref := range f.Dimensions {
			if roles[ref.Role] {
				return fmt.Errorf("mdm %s: fact %q has duplicate role %q", s.Name, f.Name, ref.Role)
			}
			roles[ref.Role] = true
			if !dimNames[ref.Dimension] {
				return fmt.Errorf("mdm %s: fact %q references unknown dimension %q", s.Name, f.Name, ref.Dimension)
			}
		}
	}
	return nil
}

// Describe renders a deterministic text summary of the schema (used to
// regenerate the paper's Figure 1 as text).
func (s *Schema) Describe() string {
	out := "Schema: " + s.Name + "\n"
	facts := append([]*FactClass(nil), s.Facts...)
	sort.Slice(facts, func(i, j int) bool { return facts[i].Name < facts[j].Name })
	for _, f := range facts {
		out += "  Fact " + f.Name + "\n"
		for _, m := range f.Measures {
			out += fmt.Sprintf("    measure %s: %s\n", m.Name, m.Type)
		}
		for _, ref := range f.Dimensions {
			out += fmt.Sprintf("    dimension %s: %s\n", ref.Role, ref.Dimension)
		}
	}
	dims := append([]*DimensionClass(nil), s.Dimensions...)
	sort.Slice(dims, func(i, j int) bool { return dims[i].Name < dims[j].Name })
	for _, d := range dims {
		out += "  Dimension " + d.Name + ": "
		for i, l := range d.Levels {
			if i > 0 {
				out += " -> "
			}
			out += l.Name
		}
		out += "\n"
	}
	return out
}
