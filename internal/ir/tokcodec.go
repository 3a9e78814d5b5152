package ir

import (
	"encoding/binary"
	"errors"
	"fmt"

	"dwqa/internal/nlp"
)

// Per-document token-stream codec.
//
// A document's analysed sentences are stored as one framed byte block:
// per sentence a token count, per token (start delta, length, tag index,
// lemma index) varints against snapshot-wide tag/lemma intern tables.
// Token text is not stored — a token's surface form is exactly
// doc.Text[start:end), so decode slices it back out of the document.
//
// The codec lives in ir (not internal/store) because the index keeps
// its sentences in wire form: Add encodes each document's block once at
// install, Import adopts the snapshot's blocks, and every passage read
// decodes just its window (decodeTokenWindow), so the index pays token
// materialisation only for the passages a query returns, and retains
// none of it. Export and the store write and ship the same blocks
// verbatim. The byte format is unchanged from snapshot schema v2, which
// decoded everything eagerly.

var (
	errNegativeCount = errors.New("negative posting count")
	errTruncatedList = errors.New("truncated posting list")
	errBadGap        = errors.New("zero or oversized id gap")
	errIDRange       = errors.New("posting id out of range")
	errBadTF         = errors.New("posting tf out of range")
	errTrailingBytes = errors.New("trailing bytes after posting list")
)

// encodeTokenBlock appends one document's token stream to dst, interning
// tags and lemmas into the shared tables (extended in first-occurrence
// order — the append-only order that keeps previously encoded blocks'
// indexes valid). Returns the extended dst and the token count.
func encodeTokenBlock(dst []byte, sents []nlp.Sentence, tagIdx map[string]int, tags *[]string, lemmaIdx map[string]int, lemmas *[]string) ([]byte, int) {
	tokens := 0
	prev := int64(0)
	for _, s := range sents {
		dst = binary.AppendUvarint(dst, uint64(len(s.Tokens)))
		tokens += len(s.Tokens)
		for _, t := range s.Tokens {
			ti, ok := tagIdx[string(t.Tag)]
			if !ok {
				ti = len(*tags)
				tagIdx[string(t.Tag)] = ti
				*tags = append(*tags, string(t.Tag))
			}
			li, ok := lemmaIdx[t.Lemma]
			if !ok {
				li = len(*lemmas)
				lemmaIdx[t.Lemma] = li
				*lemmas = append(*lemmas, t.Lemma)
			}
			dst = binary.AppendVarint(dst, int64(t.Start)-prev)
			dst = binary.AppendUvarint(dst, uint64(t.End-t.Start))
			dst = binary.AppendUvarint(dst, uint64(ti))
			dst = binary.AppendUvarint(dst, uint64(li))
			prev = int64(t.End)
		}
	}
	return dst, tokens
}

// uvTok decodes an unsigned varint with a fast path for the one-byte
// values that dominate token streams. Returns newPos -1 on truncation.
func uvTok(data []byte, pos int) (uint64, int) {
	if pos < len(data) {
		if b := data[pos]; b < 0x80 {
			return uint64(b), pos + 1
		}
	}
	v, n := binary.Uvarint(data[pos:])
	if n <= 0 {
		return 0, -1
	}
	return v, pos + n
}

// vTok is uvTok for zigzag-signed varints.
func vTok(data []byte, pos int) (int64, int) {
	u, next := uvTok(data, pos)
	if next < 0 {
		return 0, -1
	}
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v, next
}

// validateTokenBlock structurally checks a wire block without
// materialising tokens — the Import-time pass. All structural failure
// modes — truncation, empty sentences, token over/undercount, spans
// outside the document, intern indexes out of range, trailing bytes —
// surface as errors here, so a block that passed validation at Import
// decodes infallibly on every read (decodeTokenWindow).
func validateTokenBlock(data []byte, textLen, nSents, nTokens, nTags, nLemmas int) error {
	pos := 0
	ti := 0
	prev := 0
	for s := 0; s < nSents; s++ {
		nToks, next := uvTok(data, pos)
		if next < 0 {
			return errors.New("truncated token block")
		}
		pos = next
		if nToks == 0 {
			return errors.New("empty sentence")
		}
		for t := uint64(0); t < nToks; t++ {
			if ti >= nTokens {
				return fmt.Errorf("more tokens than the declared %d", nTokens)
			}
			delta, next := vTok(data, pos)
			if next < 0 {
				return errors.New("truncated token block")
			}
			length, next2 := uvTok(data, next)
			if next2 < 0 {
				return errors.New("truncated token block")
			}
			tagIdx, next3 := uvTok(data, next2)
			if next3 < 0 {
				return errors.New("truncated token block")
			}
			lemmaIdx, next4 := uvTok(data, next3)
			if next4 < 0 {
				return errors.New("truncated token block")
			}
			pos = next4
			start := prev + int(delta)
			end := start + int(length)
			if start < 0 || end < start || end > textLen {
				return fmt.Errorf("token span [%d:%d) outside document (%d bytes)", start, end, textLen)
			}
			if tagIdx >= uint64(nTags) {
				return fmt.Errorf("tag index %d out of range (%d entries)", tagIdx, nTags)
			}
			if lemmaIdx >= uint64(nLemmas) {
				return fmt.Errorf("lemma index %d out of range (%d entries)", lemmaIdx, nLemmas)
			}
			ti++
			prev = end
		}
	}
	if ti != nTokens {
		return fmt.Errorf("declared %d tokens, stream holds %d", nTokens, ti)
	}
	if pos != len(data) {
		return fmt.Errorf("%d trailing bytes in token block", len(data)-pos)
	}
	return nil
}

// decodeTokenWindow materialises sentences [from, to) of a validated
// block: the sentences before the window are walked only for their span
// deltas (positions are delta-coded across sentence boundaries), the
// window's tokens land in one arena with sentences as capacity-clamped
// subslices, token text sliced straight out of the document, and the
// bytes after the window are never read. Documents keep only their wire
// block, so every passage read decodes its window afresh and nothing
// decoded outlives the caller. The block must be well formed — encoded
// by Add, or checked by validateTokenBlock at Import — so decode has no
// error path.
func decodeTokenWindow(data []byte, text string, from, to, nSents, nTokens int, tags, lemmas []string) []nlp.Sentence {
	pos, prev := 0, 0
	for s := 0; s < from; s++ {
		var n uint64
		n, pos = uvTok(data, pos)
		for ; n > 0; n-- {
			var delta int64
			var length uint64
			delta, pos = vTok(data, pos)
			length, pos = uvTok(data, pos)
			_, pos = uvTok(data, pos)
			_, pos = uvTok(data, pos)
			prev += int(delta) + int(length)
		}
	}
	counts := make([]int, to-from)
	arena := make([]nlp.Token, 0, nTokens/nSents*(to-from)+8)
	for s := range counts {
		var n uint64
		n, pos = uvTok(data, pos)
		counts[s] = int(n)
		for ; n > 0; n-- {
			var delta int64
			var length, tagIdx, lemmaIdx uint64
			delta, pos = vTok(data, pos)
			length, pos = uvTok(data, pos)
			tagIdx, pos = uvTok(data, pos)
			lemmaIdx, pos = uvTok(data, pos)
			start := prev + int(delta)
			prev = start + int(length)
			arena = append(arena, nlp.Token{
				Text:  text[start:prev],
				Lemma: lemmas[lemmaIdx],
				Tag:   nlp.Tag(tags[tagIdx]),
				Start: start,
				End:   prev,
			})
		}
	}
	sents := make([]nlp.Sentence, len(counts))
	ti := 0
	for s, n := range counts {
		toks := arena[ti : ti+n : ti+n]
		sents[s] = nlp.Sentence{Tokens: toks, Start: toks[0].Start, End: toks[n-1].End}
		ti += n
	}
	return sents
}
