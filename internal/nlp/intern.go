package nlp

import (
	"strings"
	"sync"
)

// Process-wide string intern pool for lower-cased word forms and lemmas.
//
// An analysed corpus repeats a small vocabulary millions of times; without
// interning, every capitalised occurrence ("January" → "january") lowers
// into a fresh heap string that then lives as long as the document's
// tokens do. Interning collapses each distinct form to one canonical
// instance, so long-lived token storage (and the IR term dictionary,
// which interns the very same lemma instances it receives from Analyze)
// shares storage instead of duplicating it.
//
// Only document analysis inserts (Analyze, SplitSentences, Lemmatize), so
// the pool is bound by the vocabulary of the analysed documents — the
// growth law of the term dictionary itself. Query analysis
// (AnalyzeQuery, SplitQuerySentences) reads user input and only looks up:
// a question token the corpus never used keeps the caller's string and
// dies with the request.

var (
	internMu   sync.RWMutex
	internPool = make(map[string]string)
)

// Intern returns the canonical instance of s. The stored copy is cloned
// so the pool never pins a large backing array (tokenizer output slices
// document text).
func Intern(s string) string {
	internMu.RLock()
	c, ok := internPool[s]
	internMu.RUnlock()
	if ok {
		return c
	}
	internMu.Lock()
	defer internMu.Unlock()
	if c, ok := internPool[s]; ok {
		return c
	}
	c = strings.Clone(s)
	internPool[c] = c
	return c
}

// lookup returns the canonical instance of s when the pool holds one and
// s itself otherwise. It never inserts.
func lookup(s string) string {
	internMu.RLock()
	c, ok := internPool[s]
	internMu.RUnlock()
	if ok {
		return c
	}
	return s
}

// InternedCount returns the number of distinct strings in the intern
// pool.
func InternedCount() int {
	internMu.RLock()
	defer internMu.RUnlock()
	return len(internPool)
}
