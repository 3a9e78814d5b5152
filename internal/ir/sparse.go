package ir

import (
	"encoding/binary"
	"math"
	"sync"
)

// sparseAcc is an epoch-stamped sparse score accumulator: scores are
// recorded only for the ids that actually match a query term, so a query
// costs O(matched postings) instead of O(index). A slot is live when its
// stamp equals the current epoch; starting a new query is one counter
// increment, not an O(index) clear. Accumulators are recycled through
// accPool, so the steady state allocates nothing per query regardless of
// index size (the arrays grow monotonically to the largest index seen).
type sparseAcc struct {
	stamp   []uint32
	scores  []float64
	touched []int32 // matched ids, in first-touch order
	epoch   uint32
}

// accPool recycles accumulators across queries (and across indexes — an
// accumulator is index-agnostic, sized on demand). Each Get hands the
// caller exclusive ownership, so concurrent searches never share scratch
// state.
var accPool = sync.Pool{New: func() any { return new(sparseAcc) }}

// getAcc returns an accumulator ready for one query over n ids.
func getAcc(n int) *sparseAcc {
	a := accPool.Get().(*sparseAcc)
	if len(a.stamp) < n {
		a.stamp = make([]uint32, n)
		a.scores = make([]float64, n)
		// Fresh stamps are all zero; epoch 0 must never be live. begin()
		// below moves the epoch off zero before any add.
	}
	a.begin()
	return a
}

// putAcc returns an accumulator to the pool.
func putAcc(a *sparseAcc) { accPool.Put(a) }

// begin starts a new query epoch. On the (astronomically rare) uint32
// wrap the stamps are cleared so a slot last touched 2^32 queries ago
// cannot alias as live.
func (a *sparseAcc) begin() {
	a.epoch++
	if a.epoch == 0 {
		for i := range a.stamp {
			a.stamp[i] = 0
		}
		a.epoch = 1
	}
	a.touched = a.touched[:0]
}

// add accumulates weight w onto id, registering it on first touch.
func (a *sparseAcc) add(id int32, w float64) {
	if a.stamp[id] != a.epoch {
		a.stamp[id] = a.epoch
		a.scores[id] = 0
		a.touched = append(a.touched, id)
	}
	a.scores[id] += w
}

// The scoring kernel. Every ranked retrieval — Search, SearchDocuments,
// SearchWeighted — derives one idf weight per query term through
// GlobalIDF and then folds the terms' posting lists into an
// accumulator through accumulateLocked, adding (1 + ln tf)·idf per
// posting. The kernel evaluates exactly the float operations of that
// formula, in the same order, so scores stay bit-for-bit equal to the
// literal math.Log expression the reference oracle writes out.

// tfTableSize bounds the tf values served from tfWeightTable. Passage
// windows are eight sentences, so almost every posting's tf is small;
// the rare larger tf falls back to computing the same expression.
const tfTableSize = 64

// tfWeightTable[tf] holds 1 + ln tf, filled once at package init by the
// very expression tfWeight falls back to — it takes math.Log off the
// per-posting path.
var tfWeightTable = func() (t [tfTableSize]float64) {
	for tf := range t {
		t[tf] = 1 + math.Log(float64(tf))
	}
	return t
}()

// tfWeight returns 1 + ln tf, bitwise equal to the literal math.Log
// expression for every tf (TestTFWeightBitwise).
func tfWeight(tf int32) float64 {
	if uint32(tf) < tfTableSize {
		return tfWeightTable[tf]
	}
	return 1 + math.Log(float64(tf))
}

// accumulateLocked is the one accumulate loop of the package: for each
// term it decodes the term's posting list in lists (the passage or the
// document store) and adds tfWeight(tf)·idf[i] onto every posting's id.
// A zero weight or a term the index has never seen contributes nothing.
//
// The encoded prefix is decoded in place: the byte position, the delta
// base and the accumulator's slices live in locals, the one-byte
// (gap, tf) pair that dominates dense lists is read inline, and
// registering a first touch is spelled out rather than called; the raw
// tail (under encodeThreshold postings) goes through add. The float
// work per posting is still the one product folded into one +=, in list
// order, so scores match the oracle bit for bit (FuzzPostingKernel).
// Caller holds the read lock.
func (ix *Index) accumulateLocked(acc *sparseAcc, lists []postingList, terms []string, idf []float64) {
	stamp, scores, epoch := acc.stamp, acc.scores[:len(acc.stamp)], acc.epoch
	for i, term := range terms {
		if i >= len(idf) || idf[i] == 0 {
			continue
		}
		id, ok := ix.terms[term]
		if !ok {
			continue
		}
		w := idf[i]
		pl := &lists[id]
		enc, pos, prev := pl.enc, 0, int32(-1)
		for n := pl.encN; n > 0; n-- {
			var gap, tf uint64
			if pos+1 < len(enc) && enc[pos]|enc[pos+1] < 0x80 {
				gap, tf = uint64(enc[pos]), uint64(enc[pos+1])
				pos += 2
			} else {
				var k int
				gap, k = binary.Uvarint(enc[pos:])
				pos += k
				tf, k = binary.Uvarint(enc[pos:])
				pos += k
			}
			prev += int32(gap)
			if stamp[prev] != epoch {
				stamp[prev] = epoch
				scores[prev] = 0
				acc.touched = append(acc.touched, prev)
			}
			scores[prev] += tfWeight(int32(tf)) * w
		}
		for _, p := range pl.raw {
			acc.add(p.ID, tfWeight(p.TF)*w)
		}
	}
}

// rank selects the k best matched ids (score descending, id ascending —
// the same total order as the dense reference's selectTopK, and because
// the order is total the result is independent of touch order). k is
// clamped to the matched count so a "return everything" request cannot
// reserve O(k) memory up front.
func (a *sparseAcc) rank(k int) []int32 {
	if k > len(a.touched) {
		k = len(a.touched)
	}
	h := newTopK(k)
	for _, id := range a.touched {
		if s := a.scores[id]; s > 0 {
			h.offer(id, s)
		}
	}
	return h.ranked()
}
