package ir

import (
	"encoding/binary"
	"math"

	"dwqa/internal/nlp"
)

// The dense reference engines, test-only. SearchReference and
// SearchDocumentsReference are the scoring engines Search and
// SearchDocuments used before the sparse accumulators: a fresh []float64
// accumulator of length len(index) per query, swept in full by
// selectTopK. They are the independent oracle the scoring kernel is
// proven against (byte-identical output is asserted for every query
// shape, mirroring how dw.ExecuteReference anchors the compiled OLAP
// engine) and the baseline the IR scaling benchmarks measure — their
// per-query cost is O(index) by construction, which is exactly the
// behaviour the sparse engine removes. They write the IR-n weight out
// literally, math.Log on every posting, rather than through tfWeight
// and GlobalIDF, so a drift in the kernel cannot hide in a shared
// helper. Being exported methods of package ir, they are visible to the
// external ir_test package as well.

// SearchReference is the dense O(index)-per-query oracle for Search.
// Same contract: normalised terms in, ranking score desc then id asc.
func (ix *Index) SearchReference(terms []string, k int) []Passage {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if len(ix.passages) == 0 || len(terms) == 0 || k <= 0 {
		return nil
	}
	scores := make([]float64, len(ix.passages))
	nPass := float64(len(ix.passages))
	for _, term := range terms {
		id, ok := ix.terms[term]
		if !ok {
			continue
		}
		pl := &ix.postings[id]
		n := pl.count()
		if n == 0 {
			continue
		}
		idf := math.Log(1 + nPass/float64(n))
		for c := pl.cursor(); ; {
			pid, tf, ok := c.next()
			if !ok {
				break
			}
			scores[pid] += (1 + math.Log(float64(tf))) * idf
		}
	}
	ids := selectTopK(scores, k)
	out := make([]Passage, 0, len(ids))
	for _, id := range ids {
		out = append(out, ix.materializeLocked(int(id), scores[id]))
	}
	return out
}

// SearchDocumentsReference is the dense oracle for SearchDocuments.
func (ix *Index) SearchDocumentsReference(terms []string, k int) []DocResult {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if len(ix.docs) == 0 || len(terms) == 0 || k <= 0 {
		return nil
	}
	scores := make([]float64, len(ix.docs))
	nDocs := float64(len(ix.docs))
	for _, term := range terms {
		id, ok := ix.terms[term]
		if !ok {
			continue
		}
		pl := &ix.docPostings[id]
		n := pl.count()
		if n == 0 {
			continue
		}
		idf := math.Log(1 + nDocs/float64(n))
		for c := pl.cursor(); ; {
			did, tf, ok := c.next()
			if !ok {
				break
			}
			scores[did] += (1 + math.Log(float64(tf))) * idf
		}
	}
	ids := selectTopK(scores, k)
	out := make([]DocResult, 0, len(ids))
	for _, id := range ids {
		out = append(out, DocResult{
			URL: ix.docs[id].URL, DocIndex: int(id),
			Score: scores[id], Text: ix.docs[id].Text,
		})
	}
	return out
}

// selectTopK scans a dense score accumulator (index = id, zero = unscored)
// and returns the ids of the k best scores, ranked. k is clamped to the
// candidate count so a "return everything" request cannot reserve O(k)
// memory up front.
func selectTopK(scores []float64, k int) []int32 {
	if k > len(scores) {
		k = len(scores)
	}
	h := newTopK(k)
	for id, s := range scores {
		if s > 0 {
			h.offer(int32(id), s)
		}
	}
	return h.ranked()
}

// postingCursor streams a postingList's (id, tf) pairs in order — the
// oracles' and the compression tests' reader. It decodes with plain
// binary.Uvarint calls, independently of the scoring kernel's in-place
// decode (accumulateLocked), so the two readers check each other. The
// zero cursor is empty.
type postingCursor struct {
	enc  []byte
	pos  int
	rem  int32 // encoded postings not yet yielded
	prev int32 // delta base (-1 before the first encoded posting)
	raw  []Posting
	ri   int
}

// cursor returns a cursor over the list's full posting sequence.
func (pl *postingList) cursor() postingCursor {
	return postingCursor{enc: pl.enc, rem: pl.encN, prev: -1, raw: pl.raw}
}

// next yields the next posting. ok is false when the list is exhausted.
func (c *postingCursor) next() (id, tf int32, ok bool) {
	if c.rem > 0 {
		c.rem--
		gap, n := binary.Uvarint(c.enc[c.pos:])
		c.pos += n
		tfu, n := binary.Uvarint(c.enc[c.pos:])
		c.pos += n
		c.prev += int32(gap)
		return c.prev, int32(tfu), true
	}
	if c.ri < len(c.raw) {
		p := c.raw[c.ri]
		c.ri++
		return p.ID, p.TF, true
	}
	return 0, 0, false
}

// decodeTokenBlock materialises every sentence of a validated block with
// plain binary.Uvarint / binary.Varint reads, one token slice per
// sentence — the oracle the production window decoder,
// decodeTokenWindow, is checked against.
func decodeTokenBlock(data []byte, text string, nSents int, tags, lemmas []string) []nlp.Sentence {
	pos, prev := 0, 0
	uv := func() int {
		v, n := binary.Uvarint(data[pos:])
		pos += n
		return int(v)
	}
	sents := make([]nlp.Sentence, nSents)
	for s := range sents {
		toks := make([]nlp.Token, uv())
		for i := range toks {
			delta, n := binary.Varint(data[pos:])
			pos += n
			start := prev + int(delta)
			prev = start + uv()
			tag := tags[uv()]
			toks[i] = nlp.Token{Text: text[start:prev], Lemma: lemmas[uv()], Tag: nlp.Tag(tag), Start: start, End: prev}
		}
		sents[s] = nlp.Sentence{Tokens: toks, Start: toks[0].Start, End: toks[len(toks)-1].End}
	}
	return sents
}
