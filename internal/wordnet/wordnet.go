// Package wordnet implements the upper ontology used by the QA system: an
// in-memory WordNet-style lexical database with synsets, the full relation
// inventory the paper lists (hypernym, hyponym, holonym, meronym, antonym,
// synonymy via shared synsets), glosses, the 25 noun and 15 verb base
// types and sense ordering.
//
// The paper uses WordNet/EuroWordNet (~115k synsets). This reproduction
// ships a hand-built seed lexicon (see seed.go) covering general
// vocabulary plus the evaluation domain; the integration model itself
// (Steps 2-3) is what restores domain coverage, exactly as the paper
// argues when it adds "JFK", "John Wayne" and "La Guardia" to the airport
// subtree.
package wordnet

import (
	"fmt"
	"strings"
	"sync"
)

// POS is a part of speech for which synsets exist.
type POS string

// Parts of speech distinguished by the lexical database.
const (
	Noun      POS = "n"
	Verb      POS = "v"
	Adjective POS = "a"
	Adverb    POS = "r"
)

// RelType names a semantic relation between synsets.
type RelType string

// The relation inventory. Synonymy is represented by lemma co-membership
// in one synset, as in WordNet, so it has no RelType.
const (
	Hypernym         RelType = "hypernym"          // is-a (more general)
	Hyponym          RelType = "hyponym"           // inverse of Hypernym
	InstanceHypernym RelType = "instance_hypernym" // instance-of
	InstanceHyponym  RelType = "instance_hyponym"  // inverse of InstanceHypernym
	PartMeronym      RelType = "part_meronym"      // has-part
	PartHolonym      RelType = "part_holonym"      // part-of
	MemberMeronym    RelType = "member_meronym"    // has-member
	MemberHolonym    RelType = "member_holonym"    // member-of
	Antonym          RelType = "antonym"
)

// inverseRel maps each relation to its inverse so that Relate can maintain
// both directions.
var inverseRel = map[RelType]RelType{
	Hypernym:         Hyponym,
	Hyponym:          Hypernym,
	InstanceHypernym: InstanceHyponym,
	InstanceHyponym:  InstanceHypernym,
	PartMeronym:      PartHolonym,
	PartHolonym:      PartMeronym,
	MemberMeronym:    MemberHolonym,
	MemberHolonym:    MemberMeronym,
	Antonym:          Antonym,
}

// Synset is a set of synonymous lemmas with a gloss and typed relations to
// other synsets.
type Synset struct {
	ID     string   // unique, e.g. "n.airport.01"
	POS    POS      // part of speech
	Lemmas []string // lower-cased synonyms; the first is canonical
	Gloss  string   // short definition
	Base   BaseType // unique-beginner category (see basetypes.go)

	rels map[RelType][]string // relation → ordered target synset IDs
}

// CanonicalLemma returns the first (preferred) lemma of the synset.
func (s *Synset) CanonicalLemma() string {
	if len(s.Lemmas) == 0 {
		return ""
	}
	return s.Lemmas[0]
}

// HasLemma reports whether the synset contains the (normalised) lemma.
func (s *Synset) HasLemma(lemma string) bool {
	lemma = NormalizeLemma(lemma)
	for _, l := range s.Lemmas {
		if l == lemma {
			return true
		}
	}
	return false
}

// Related returns the IDs of synsets reachable from s via rel, in insertion
// order. The returned slice must not be modified.
func (s *Synset) Related(rel RelType) []string { return s.rels[rel] }

// String renders the synset compactly for diagnostics.
func (s *Synset) String() string {
	return fmt.Sprintf("%s{%s}", s.ID, strings.Join(s.Lemmas, ","))
}

// WordNet is the mutable lexical database. It is safe for concurrent use:
// Step 3 of the integration merges the domain ontology into it while the
// QA search phase reads it.
type WordNet struct {
	mu      sync.RWMutex
	synsets map[string]*Synset
	// index maps "lemma|pos" to synset IDs in sense order (most frequent
	// sense first, mirroring WordNet's sense ranking).
	index map[string][]string
}

// New returns an empty lexical database.
func New() *WordNet {
	return &WordNet{
		synsets: make(map[string]*Synset),
		index:   make(map[string][]string),
	}
}

// NormalizeLemma lower-cases a lemma and collapses interior whitespace so
// multi-word lemmas compare reliably ("Kennedy  International Airport" →
// "kennedy international airport").
func NormalizeLemma(lemma string) string {
	return strings.Join(strings.Fields(strings.ToLower(lemma)), " ")
}

func indexKey(lemma string, pos POS) string {
	return NormalizeLemma(lemma) + "|" + string(pos)
}

// AddSynset creates a synset. It returns an error if the ID already exists
// or no lemma is given.
func (w *WordNet) AddSynset(id string, pos POS, base BaseType, gloss string, lemmas ...string) (*Synset, error) {
	if len(lemmas) == 0 {
		return nil, fmt.Errorf("wordnet: synset %q needs at least one lemma", id)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, dup := w.synsets[id]; dup {
		return nil, fmt.Errorf("wordnet: duplicate synset id %q", id)
	}
	s := &Synset{
		ID:    id,
		POS:   pos,
		Gloss: gloss,
		Base:  base,
		rels:  make(map[RelType][]string),
	}
	for _, l := range lemmas {
		l = NormalizeLemma(l)
		if l == "" {
			continue
		}
		s.Lemmas = append(s.Lemmas, l)
		w.index[indexKey(l, pos)] = append(w.index[indexKey(l, pos)], id)
	}
	if len(s.Lemmas) == 0 {
		return nil, fmt.Errorf("wordnet: synset %q has only empty lemmas", id)
	}
	w.synsets[id] = s
	return s, nil
}

// AddLemma adds a synonym to an existing synset — the operation the paper
// performs when it enriches "Kennedy International Airport" with the new
// term "JFK". Adding an existing lemma is a no-op.
func (w *WordNet) AddLemma(synsetID, lemma string) error {
	lemma = NormalizeLemma(lemma)
	if lemma == "" {
		return fmt.Errorf("wordnet: empty lemma")
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	s, ok := w.synsets[synsetID]
	if !ok {
		return fmt.Errorf("wordnet: unknown synset %q", synsetID)
	}
	for _, l := range s.Lemmas {
		if l == lemma {
			return nil
		}
	}
	s.Lemmas = append(s.Lemmas, lemma)
	w.index[indexKey(lemma, s.POS)] = append(w.index[indexKey(lemma, s.POS)], synsetID)
	return nil
}

// Relate records rel(from → to) and its inverse. Both synsets must exist.
// Duplicate edges are ignored.
func (w *WordNet) Relate(from string, rel RelType, to string) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	fs, ok := w.synsets[from]
	if !ok {
		return fmt.Errorf("wordnet: unknown synset %q", from)
	}
	ts, ok := w.synsets[to]
	if !ok {
		return fmt.Errorf("wordnet: unknown synset %q", to)
	}
	addEdge(fs, rel, to)
	if inv, ok := inverseRel[rel]; ok {
		addEdge(ts, inv, from)
	}
	return nil
}

func addEdge(s *Synset, rel RelType, target string) {
	for _, t := range s.rels[rel] {
		if t == target {
			return
		}
	}
	s.rels[rel] = append(s.rels[rel], target)
}

// Synset returns the synset with the given ID, or nil.
func (w *WordNet) Synset(id string) *Synset {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.synsets[id]
}

// Lookup returns the synsets containing the lemma with the given POS, in
// sense order. A nil slice means the lemma is unknown — the situation the
// paper handles in Step 3 by adding new concepts.
func (w *WordNet) Lookup(lemma string, pos POS) []*Synset {
	w.mu.RLock()
	defer w.mu.RUnlock()
	ids := w.index[indexKey(lemma, pos)]
	out := make([]*Synset, 0, len(ids))
	for _, id := range ids {
		out = append(out, w.synsets[id])
	}
	return out
}

// LookupAnyPOS returns synsets for the lemma across all parts of speech,
// nouns first.
func (w *WordNet) LookupAnyPOS(lemma string) []*Synset {
	var out []*Synset
	for _, pos := range [...]POS{Noun, Verb, Adjective, Adverb} {
		out = append(out, w.Lookup(lemma, pos)...)
	}
	return out
}

// Size returns the number of synsets.
func (w *WordNet) Size() int {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return len(w.synsets)
}

// HasLemma reports whether any synset contains the lemma (any POS).
func (w *WordNet) HasLemma(lemma string) bool {
	return len(w.LookupAnyPOS(lemma)) > 0
}
