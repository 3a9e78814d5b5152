package nl2olap

import (
	"dwqa/internal/mdm"
	"dwqa/internal/ontology"
)

// memberCand is one dimension holding a member name, at the finest level
// of that dimension that does.
type memberCand struct {
	dim, level string
}

// instRef is what grounding reads of an ontology instance: its concept,
// canonical name and locatedIn property.
type instRef struct {
	concept, name, locatedIn string
}

// lexicon is what member grounding reads: the resolver when serving, a
// probe-per-level reference in the package's tests.
type lexicon interface {
	// phrase reports what may ground a surface form: member is false
	// only when no member is named by any spelling memberLookup tries,
	// and inst is the ontology instance the form names, case-
	// insensitively, as ontology.FindInstance finds it (isInst false for
	// none).
	phrase(surface string) (member bool, inst instRef, isInst bool)
	// members returns, per dimension in schema order, the finest level
	// holding a member named exactly name; nil when none does.
	members(name string) []memberCand
	// months returns the calendar's Month member names, sorted.
	months() []string
}

// resolver is the translator's grounding dictionary for one (warehouse
// member set, ontology instance set) pair, identified by the two
// generations it was built at. It is immutable once published.
type resolver struct {
	memberGen, instGen uint64

	byFold    map[string]phraseEntry  // ontology.Normalize form → what it names
	byName    map[string][]memberCand // exact member name → holders
	monthList []string
}

// phraseEntry is what one case- and space-folded phrase names.
type phraseEntry struct {
	member bool // some member's name folds to the phrase
	isInst bool
	inst   instRef
}

// phrase looks an ASCII surface form up by its fold, which every
// spelling memberLookup tries shares, without allocating. A non-ASCII
// form may be spelt differently (titleCase rewrites a multi-byte
// initial), so its members are always tried.
func (r *resolver) phrase(surface string) (bool, instRef, bool) {
	var buf [64]byte
	if key, ascii := appendFolded(buf[:0], surface, false); ascii {
		e := r.byFold[string(key)]
		return e.member, e.inst, e.isInst
	}
	e := r.byFold[ontology.Normalize(surface)]
	return true, e.inst, e.isInst
}

func (r *resolver) members(name string) []memberCand { return r.byName[name] }

func (r *resolver) months() []string { return r.monthList }

// currentResolver returns the resolver for the warehouse's and the ontology's
// current generations, rebuilding it first when either has moved. The
// rebuild is single-flight: concurrent callers wait for it rather than
// build their own, and read it once it is published. Reading the
// generations before the member lists means a resolver holds at least
// the members of the generation it is tagged with; a member committed
// during the build moves the generation, and the next call rebuilds.
func (t *Translator) currentResolver() *resolver {
	memberGen, instGen := t.generations()
	if r := t.res.Load(); r != nil && r.memberGen == memberGen && r.instGen == instGen {
		return r
	}
	t.resMu.Lock()
	defer t.resMu.Unlock()
	memberGen, instGen = t.generations()
	if r := t.res.Load(); r != nil && r.memberGen == memberGen && r.instGen == instGen {
		return r
	}
	r := buildResolver(t.schema, t.wh, t.onto, t.time, memberGen, instGen)
	t.res.Store(r)
	return r
}

func (t *Translator) generations() (memberGen, instGen uint64) {
	memberGen = t.wh.MemberGeneration()
	if t.onto != nil {
		instGen = t.onto.InstanceGeneration()
	}
	return memberGen, instGen
}

// buildResolver reads every level's members, base level first, so the
// first level of a dimension to hold a name is its finest; and every
// ontology instance name and alias in FindInstance's search order, so
// the first instance under a key is the one FindInstance returns. Both
// are keyed by their ontology.Normalize fold too, which for ASCII is
// the fold of every spelling of the name memberLookup tries.
func buildResolver(schema *mdm.Schema, wh Warehouse, onto *ontology.Ontology, ts TimeSpec, memberGen, instGen uint64) *resolver {
	r := &resolver{
		memberGen: memberGen,
		instGen:   instGen,
		byFold:    map[string]phraseEntry{},
		byName:    map[string][]memberCand{},
	}
	for _, d := range schema.Dimensions {
		for _, lvl := range d.Levels {
			names := wh.Members(d.Name, lvl.Name)
			if d.Name == ts.Dimension && lvl.Name == ts.Month {
				r.monthList = names
			}
			for _, name := range names {
				key := ontology.Normalize(name)
				e := r.byFold[key]
				e.member = true
				r.byFold[key] = e
				held := r.byName[name]
				if n := len(held); n > 0 && held[n-1].dim == d.Name {
					continue // a finer level of this dimension holds it
				}
				r.byName[name] = append(held, memberCand{dim: d.Name, level: lvl.Name})
			}
		}
	}
	if onto != nil {
		onto.EachInstanceKey(func(key, concept string, inst *ontology.Instance) {
			if e := r.byFold[key]; !e.isInst {
				e.isInst, e.inst = true, instRef{concept: concept, name: inst.Name, locatedIn: inst.Properties["locatedIn"]}
				r.byFold[key] = e
			}
		})
	}
	return r
}
