package ir

import "math"

// Federated retrieval support: a sharded deployment splits the corpus
// across N indexes, but ranking must stay byte-identical to one big
// index. Scores depend on corpus statistics (total passages, per-term
// document frequency), so each shard exposes its local statistics
// (TermStats) for the coordinator to sum, and scores its own postings
// with the globally-derived idf weights (SearchWeighted). Passage
// windows never span documents, so the global statistics are exact sums
// of the per-shard ones and the per-passage score is bitwise identical
// to what the unsharded Search would compute.

// TermStats returns the index's passage count and, per query term, the
// passage-level document frequency (0 for unknown terms) — the inputs a
// federated coordinator sums across shards to derive global idf weights.
func (ix *Index) TermStats(terms []string) (nPass int, df []int) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.passages), ix.dfLocked(ix.postings, terms)
}

// dfLocked returns, per term, the length of its posting list in lists
// (0 for a term the index has never seen) — the document frequency over
// the passage or the document store. Caller holds the read lock.
func (ix *Index) dfLocked(lists []postingList, terms []string) []int {
	df := make([]int, len(terms))
	for i, term := range terms {
		if id, ok := ix.terms[term]; ok {
			df[i] = lists[id].count()
		}
	}
	return df
}

// GlobalIDF derives the idf weight vector for query terms from summed
// corpus statistics: log(1 + N/df). Search and
// SearchDocuments derive their own weights through this very function,
// so a federated score is bitwise identical to the single-index one by
// construction. Terms absent from the whole corpus get weight 0.
func GlobalIDF(nPass int, df []int) []float64 {
	idf := make([]float64, len(df))
	for i, d := range df {
		if d > 0 {
			idf[i] = math.Log(1 + float64(nPass)/float64(d))
		}
	}
	return idf
}

// SearchWeighted ranks this index's passages like Search but with
// caller-supplied per-term idf weights (the global statistics of a
// sharded corpus). Terms with weight 0 — or absent from this shard —
// contribute nothing, mirroring Search's skip of empty posting lists.
// Results carry the documents' global ordinals, which is what the
// coordinator's cross-shard merge tie-breaks on.
func (ix *Index) SearchWeighted(terms []string, idf []float64, k int) []Passage {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if len(ix.passages) == 0 || len(terms) == 0 || k <= 0 {
		return nil
	}
	return ix.searchWeightedLocked(terms, idf, k)
}
