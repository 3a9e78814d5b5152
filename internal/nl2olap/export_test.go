package nl2olap

// probeLexicon is the reference the resolver is checked against: it
// grounds the way the translator did before the resolver existed, with
// one warehouse probe per (dimension, level) for every name, one
// ontology.FindInstance scan per instance lookup, and a fresh sorted
// copy of the Month members per bare month.
type probeLexicon struct {
	t  *Translator
	wh memberProber
}

// memberProber is the probe the reference grounds with; *dw.Warehouse
// and shard.Cluster both have it.
type memberProber interface {
	MemberKey(dim, level, name string) (int, error)
}

// phrase always has members tried: the probes find out.
func (p probeLexicon) phrase(surface string) (bool, instRef, bool) {
	if p.t.onto == nil {
		return true, instRef{}, false
	}
	concept, inst := p.t.onto.FindInstance(surface)
	if inst == nil {
		return true, instRef{}, false
	}
	return true, instRef{concept: concept, name: inst.Name, locatedIn: inst.Properties["locatedIn"]}, true
}

func (p probeLexicon) members(name string) []memberCand {
	var held []memberCand
	for _, d := range p.t.schema.Dimensions {
		for _, lvl := range d.Levels {
			if _, err := p.wh.MemberKey(d.Name, lvl.Name, name); err == nil {
				held = append(held, memberCand{dim: d.Name, level: lvl.Name})
				break // base-first: the finest level of this dimension wins
			}
		}
	}
	return held
}

func (p probeLexicon) months() []string {
	return p.t.wh.Members(p.t.time.Dimension, p.t.time.Month)
}

// TranslateReference compiles a question exactly as Translate does, but
// grounds members through the probe reference instead of the resolver.
// The translator's warehouse must have MemberKey.
func (t *Translator) TranslateReference(question string) (*Translation, error) {
	return t.translate(question, &grounder{t: t, lex: probeLexicon{t: t, wh: t.wh.(memberProber)}})
}
