// Package ontology implements the domain ontology that mediates between
// the data warehouse and the question answering system (Steps 1-2 of the
// paper's integration model). An ontology holds concepts (derived from the
// UML multidimensional model), subclass and association relations,
// instances (fed from the DW contents) and axioms (the Step 4 tuning
// knowledge: e.g. a temperature is a number followed by a scale, with
// valid intervals and conversion formulae between Celsius and Fahrenheit).
package ontology

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// AttrKind classifies a concept attribute following the UML profile of the
// multidimensional model: fact measures, dimension descriptors, surrogate
// identifiers and plain attributes.
type AttrKind string

// Attribute kinds.
const (
	KindMeasure    AttrKind = "measure"    // fact measure (Price, Miles)
	KindDescriptor AttrKind = "descriptor" // level descriptor (Name)
	KindOID        AttrKind = "oid"        // surrogate identifier
	KindAttribute  AttrKind = "attribute"  // any other attribute
)

// Attribute is a named, typed attribute of a concept.
type Attribute struct {
	Name string
	Kind AttrKind
	Type string // free-form type name: "Float", "String", "Date"...
}

// Relation is a named association from one concept to another, e.g.
// Airport --locatedIn--> City or LastMinuteSales --analyzedBy--> Date.
type Relation struct {
	Name   string
	Target string
}

// Instance is a concrete individual of a concept, carried over from the DW
// contents in Step 2 ("the ontological concept Airport will have instances
// like JFK, John Wayne or La Guardia").
type Instance struct {
	Name       string            // canonical name, e.g. "El Prat"
	Aliases    []string          // alternative names, e.g. "Barcelona-El Prat"
	Properties map[string]string // relation values, e.g. "locatedIn" → "Barcelona"
}

// Concept is an ontological concept: a node in the subclass hierarchy with
// attributes, associations, instances and axioms.
type Concept struct {
	Name       string
	Parents    []string // subclass-of
	Attributes []Attribute
	Relations  []Relation
	Instances  map[string]*Instance
	Axioms     []Axiom
}

// Ontology is a mutable concept graph, safe for concurrent use.
type Ontology struct {
	Name string

	mu       sync.RWMutex
	concepts map[string]*Concept // key: Normalize(name)

	// instGen counts the changes AddInstance made. See
	// InstanceGeneration.
	instGen atomic.Uint64
}

// InstanceGeneration identifies the ontology's current instances: it
// moves, under the write lock, whenever AddInstance adds an instance or
// an alias or changes a property, and at no other time. Caches derived
// from the instance lexicon (the analytic translator's grounding
// dictionary) compare it to decide whether to rebuild. It is a
// lock-free load.
func (o *Ontology) InstanceGeneration() uint64 { return o.instGen.Load() }

// New returns an empty ontology with the given name.
func New(name string) *Ontology {
	return &Ontology{Name: name, concepts: make(map[string]*Concept)}
}

// Normalize canonicalises a concept or instance name for lookup: lower
// case, single spaces. Already-canonical names are returned as-is and
// names that only need case folding take the single-allocation ToLower
// path — lookups sit on the QA answer-validation hot path, where the
// general Fields/Join form was a measurable allocation source.
func Normalize(name string) string {
	switch scanNormalized(name) {
	case normYes:
		return name
	case normFold:
		return strings.ToLower(name)
	}
	return strings.Join(strings.Fields(strings.ToLower(name)), " ")
}

type normState int

const (
	normYes  normState = iota // already canonical
	normFold                  // canonical spacing, needs ASCII case folding only
	normFull                  // needs the general rewrite
)

// scanNormalized classifies how much work Normalize must do. Any
// non-ASCII byte is classified normFull — multi-byte case folding and
// Unicode whitespace are left to the general path.
func scanNormalized(s string) normState {
	st := normYes
	prevSpace := true // a leading space is never canonical
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 0x80 {
			return normFull
		}
		switch {
		case c == ' ':
			if prevSpace {
				return normFull
			}
			prevSpace = true
		case c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r':
			return normFull
		default:
			if c >= 'A' && c <= 'Z' {
				st = normFold
			}
			prevSpace = false
		}
	}
	if prevSpace && len(s) > 0 {
		return normFull // trailing space
	}
	return st
}

// equalNormalized reports Normalize(a) == Normalize(b) without
// allocating on the all-ASCII path (unit and concept comparisons run per
// answer candidate). Non-ASCII input falls back to the materialised
// comparison.
func equalNormalized(a, b string) bool {
	for i := 0; i < len(a); i++ {
		if a[i] >= 0x80 {
			return Normalize(a) == Normalize(b)
		}
	}
	for j := 0; j < len(b); j++ {
		if b[j] >= 0x80 {
			return Normalize(a) == Normalize(b)
		}
	}
	i, j := skipSpace(a, 0), skipSpace(b, 0)
	for i < len(a) && j < len(b) {
		ca, cb := a[i], b[j]
		sa, sb := asciiSpace(ca), asciiSpace(cb)
		if sa || sb {
			if !sa || !sb {
				return false
			}
			i, j = skipSpace(a, i), skipSpace(b, j)
			// Both either reached a next word or ran out; loop re-checks.
			continue
		}
		if lowerASCII(ca) != lowerASCII(cb) {
			return false
		}
		i++
		j++
	}
	return skipSpace(a, i) == len(a) && skipSpace(b, j) == len(b)
}

func asciiSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r'
}

func skipSpace(s string, i int) int {
	for i < len(s) && asciiSpace(s[i]) {
		i++
	}
	return i
}

func lowerASCII(c byte) byte {
	if c >= 'A' && c <= 'Z' {
		return c + ('a' - 'A')
	}
	return c
}

// AddConcept creates a concept. Creating an existing concept returns the
// existing one (idempotent, since Step 1 and Step 2 may both touch it).
func (o *Ontology) AddConcept(name string) *Concept {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.addConceptLocked(name)
}

func (o *Ontology) addConceptLocked(name string) *Concept {
	key := Normalize(name)
	if c, ok := o.concepts[key]; ok {
		return c
	}
	c := &Concept{Name: name, Instances: make(map[string]*Instance)}
	o.concepts[key] = c
	return c
}

// Subclass records that child is-a parent, creating both concepts if
// needed. Duplicate edges are ignored.
func (o *Ontology) Subclass(child, parent string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	c := o.addConceptLocked(child)
	o.addConceptLocked(parent)
	pk := Normalize(parent)
	for _, p := range c.Parents {
		if Normalize(p) == pk {
			return
		}
	}
	c.Parents = append(c.Parents, parent)
}

// AddAttribute attaches an attribute to a concept (created if absent).
func (o *Ontology) AddAttribute(concept string, a Attribute) {
	o.mu.Lock()
	defer o.mu.Unlock()
	c := o.addConceptLocked(concept)
	for _, existing := range c.Attributes {
		if existing.Name == a.Name {
			return
		}
	}
	c.Attributes = append(c.Attributes, a)
}

// AddRelation attaches an association from concept to target.
func (o *Ontology) AddRelation(concept string, r Relation) {
	o.mu.Lock()
	defer o.mu.Unlock()
	c := o.addConceptLocked(concept)
	o.addConceptLocked(r.Target)
	for _, existing := range c.Relations {
		if existing.Name == r.Name && Normalize(existing.Target) == Normalize(r.Target) {
			return
		}
	}
	c.Relations = append(c.Relations, r)
}

// AddInstance records an individual of a concept. Re-adding merges aliases
// and properties rather than overwriting.
func (o *Ontology) AddInstance(concept string, inst Instance) *Instance {
	o.mu.Lock()
	defer o.mu.Unlock()
	c := o.addConceptLocked(concept)
	key := Normalize(inst.Name)
	cur, ok := c.Instances[key]
	if !ok {
		cp := inst
		cp.Properties = map[string]string{}
		for k, v := range inst.Properties {
			cp.Properties[k] = v
		}
		cp.Aliases = append([]string(nil), inst.Aliases...)
		c.Instances[key] = &cp
		o.instGen.Add(1)
		return &cp
	}
	for _, a := range inst.Aliases {
		if !containsFold(cur.Aliases, a) {
			cur.Aliases = append(cur.Aliases, a)
			o.instGen.Add(1)
		}
	}
	for k, v := range inst.Properties {
		if old, ok := cur.Properties[k]; !ok || old != v {
			cur.Properties[k] = v
			o.instGen.Add(1)
		}
	}
	return cur
}

func containsFold(list []string, s string) bool {
	for _, x := range list {
		if Normalize(x) == Normalize(s) {
			return true
		}
	}
	return false
}

// Concept returns the concept with the given name, or nil.
func (o *Ontology) Concept(name string) *Concept {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.concepts[Normalize(name)]
}

// Concepts returns all concept names sorted alphabetically.
func (o *Ontology) Concepts() []string {
	o.mu.RLock()
	defer o.mu.RUnlock()
	names := make([]string, 0, len(o.concepts))
	for _, c := range o.concepts {
		names = append(names, c.Name)
	}
	sort.Strings(names)
	return names
}

// Size returns the number of concepts.
func (o *Ontology) Size() int {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return len(o.concepts)
}

// InstanceCount returns the total number of instances across concepts.
func (o *Ontology) InstanceCount() int {
	o.mu.RLock()
	defer o.mu.RUnlock()
	n := 0
	for _, c := range o.concepts {
		n += len(c.Instances)
	}
	return n
}

// FindInstance locates an instance by name or alias anywhere in the
// ontology, returning its concept and the instance. The search is
// case-insensitive. Returns ("", nil) when absent.
func (o *Ontology) FindInstance(name string) (string, *Instance) {
	key := Normalize(name)
	o.mu.RLock()
	defer o.mu.RUnlock()
	// Deterministic order: scan concepts sorted by name.
	for _, ck := range sortedKeys(o.concepts) {
		c := o.concepts[ck]
		if inst, ok := c.Instances[key]; ok {
			return c.Name, inst
		}
		for _, inst := range c.Instances {
			if containsFold(inst.Aliases, name) {
				return c.Name, inst
			}
		}
	}
	return "", nil
}

// EachInstanceKey calls fn once for every name and every alias of every
// instance, with its normalised form as key, in the order FindInstance
// searches: concepts by normalised name, and within a concept every
// instance name before any alias, instances by normalised name. So the
// first call for a key names the instance FindInstance(key) returns —
// except where two instances of one concept share an alias, which
// FindInstance resolves in map order and this walk in name order. fn
// runs under the read lock and must not call back into the ontology.
func (o *Ontology) EachInstanceKey(fn func(key, concept string, inst *Instance)) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	for _, ck := range sortedKeys(o.concepts) {
		c := o.concepts[ck]
		keys := sortedKeys(c.Instances)
		for _, ik := range keys {
			fn(ik, c.Name, c.Instances[ik])
		}
		for _, ik := range keys {
			inst := c.Instances[ik]
			for _, a := range inst.Aliases {
				fn(Normalize(a), c.Name, inst)
			}
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// IsA reports whether concept child is (transitively) a subclass of
// ancestor. A concept IsA itself.
func (o *Ontology) IsA(child, ancestor string) bool {
	o.mu.RLock()
	defer o.mu.RUnlock()
	ck, ak := Normalize(child), Normalize(ancestor)
	if ck == ak {
		_, ok := o.concepts[ck]
		return ok
	}
	seen := map[string]bool{}
	var walk func(string) bool
	walk = func(cur string) bool {
		if cur == ak {
			return true
		}
		if seen[cur] {
			return false
		}
		seen[cur] = true
		c, ok := o.concepts[cur]
		if !ok {
			return false
		}
		for _, p := range c.Parents {
			if walk(Normalize(p)) {
				return true
			}
		}
		return false
	}
	return walk(ck)
}

// Validate checks structural invariants: parents and relation targets
// exist and the subclass graph is acyclic.
func (o *Ontology) Validate() error {
	o.mu.RLock()
	defer o.mu.RUnlock()
	for key, c := range o.concepts {
		for _, p := range c.Parents {
			if _, ok := o.concepts[Normalize(p)]; !ok {
				return fmt.Errorf("ontology %s: concept %q has unknown parent %q", o.Name, c.Name, p)
			}
		}
		for _, r := range c.Relations {
			if _, ok := o.concepts[Normalize(r.Target)]; !ok {
				return fmt.Errorf("ontology %s: concept %q relation %q targets unknown %q", o.Name, c.Name, r.Name, r.Target)
			}
		}
		if err := o.checkAcyclicFrom(key); err != nil {
			return err
		}
	}
	return nil
}

func (o *Ontology) checkAcyclicFrom(start string) error {
	state := map[string]int{} // 0 unvisited, 1 in-stack, 2 done
	var walk func(string) error
	walk = func(cur string) error {
		switch state[cur] {
		case 1:
			return fmt.Errorf("ontology %s: subclass cycle through %q", o.Name, cur)
		case 2:
			return nil
		}
		state[cur] = 1
		if c, ok := o.concepts[cur]; ok {
			for _, p := range c.Parents {
				if err := walk(Normalize(p)); err != nil {
					return err
				}
			}
		}
		state[cur] = 2
		return nil
	}
	return walk(start)
}
