package wordnet

// This file implements graph traversal over the hypernym hierarchy:
// ancestor paths, depth and subsumption tests (the "semantic preference
// to the hyponyms of country" mechanism of AliQAn's question analysis).

// hypernymsOf returns the direct hypernyms of a synset, treating
// instance-of like is-a for traversal purposes.
func (w *WordNet) hypernymsOf(id string) []string {
	s := w.Synset(id)
	if s == nil {
		return nil
	}
	out := append([]string(nil), s.Related(Hypernym)...)
	out = append(out, s.Related(InstanceHypernym)...)
	return out
}

// HypernymPaths returns every path from the synset up to a root, each path
// starting at id and ending at the root. Cycles (which AddSynset/Relate do
// not prevent structurally) are broken by visited tracking.
func (w *WordNet) HypernymPaths(id string) [][]string {
	if w.Synset(id) == nil {
		return nil
	}
	var paths [][]string
	var walk func(cur string, path []string, seen map[string]bool)
	walk = func(cur string, path []string, seen map[string]bool) {
		path = append(path, cur)
		parents := w.hypernymsOf(cur)
		next := parents[:0:0]
		for _, p := range parents {
			if !seen[p] {
				next = append(next, p)
			}
		}
		if len(next) == 0 {
			paths = append(paths, append([]string(nil), path...))
			return
		}
		for _, p := range next {
			seen[p] = true
			walk(p, path, seen)
			delete(seen, p)
		}
	}
	walk(id, nil, map[string]bool{id: true})
	return paths
}

// Depth returns the length of the shortest hypernym path from the synset
// to a root (root = 0). Unknown synsets return -1.
func (w *WordNet) Depth(id string) int {
	paths := w.HypernymPaths(id)
	if len(paths) == 0 {
		return -1
	}
	best := -1
	for _, p := range paths {
		if best == -1 || len(p)-1 < best {
			best = len(p) - 1
		}
	}
	return best
}

// Ancestors returns the set of all (transitive) hypernyms of the synset,
// excluding itself.
func (w *WordNet) Ancestors(id string) map[string]bool {
	out := make(map[string]bool)
	var walk func(cur string)
	walk = func(cur string) {
		for _, p := range w.hypernymsOf(cur) {
			if !out[p] {
				out[p] = true
				walk(p)
			}
		}
	}
	walk(id)
	return out
}

// IsA reports whether synset id is (transitively) a kind/instance of the
// synset ancestor. A synset IsA itself.
func (w *WordNet) IsA(id, ancestor string) bool {
	if id == ancestor {
		return w.Synset(id) != nil
	}
	return w.Ancestors(id)[ancestor]
}

// LemmaIsA reports whether any sense of lemma (as pos) is subsumed by any
// sense of ancestorLemma. This is the subsumption test question analysis
// uses: "a proper noun ... with a semantic preference to the hyponyms of
// 'country'".
func (w *WordNet) LemmaIsA(lemma string, pos POS, ancestorLemma string) bool {
	ancestors := w.Lookup(ancestorLemma, pos)
	if len(ancestors) == 0 {
		return false
	}
	for _, s := range w.Lookup(lemma, pos) {
		for _, a := range ancestors {
			if w.IsA(s.ID, a.ID) {
				return true
			}
		}
	}
	return false
}
