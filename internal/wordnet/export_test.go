package wordnet

import "sort"

// Synsets returns all synset IDs in sorted order, so the integrity tests
// iterate the lexicon deterministically.
func (w *WordNet) Synsets() []string {
	w.mu.RLock()
	defer w.mu.RUnlock()
	ids := make([]string, 0, len(w.synsets))
	for id := range w.synsets {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
