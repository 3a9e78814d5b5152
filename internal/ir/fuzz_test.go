package ir

import (
	"encoding/binary"
	"math"
	"reflect"
	"slices"
	"testing"

	"dwqa/internal/nlp"
)

// Fuzzing the two decoders the query path runs on every request: the
// scoring kernel's in-place posting decode (accumulateLocked) and the
// token-block window decode behind every restored passage
// (decodeTokenWindow). Each is checked against an independent oracle in
// the test files.

const (
	maxFuzzPostings = 512
	maxFuzzGap      = 1 << 15 // gaps up to three varint bytes
	maxFuzzID       = 1 << 18 // bounds the accumulator a case needs
)

// fuzzLists turns fuzz bytes into two ascending posting lists over one id
// sequence. Each posting reads a gap and a tf as uvarints, so inputs
// reach multi-byte gaps and tf ≥ 64 (the tf-weight table's fallback) as
// easily as the one-byte pairs of dense lists; the tf also picks whether
// the id lands in list a, list b or both, so the kernel's cross-term
// folds onto one id are exercised.
func fuzzLists(data []byte) (a, b []Posting) {
	prev := int32(-1)
	for n := 0; n < maxFuzzPostings; n++ {
		gap, k := binary.Uvarint(data)
		if k <= 0 {
			break
		}
		data = data[k:]
		raw, k := binary.Uvarint(data)
		if k <= 0 {
			break
		}
		data = data[k:]
		id := int64(prev) + 1 + int64(gap%maxFuzzGap)
		if id >= maxFuzzID {
			break
		}
		prev = int32(id)
		p := Posting{ID: prev, TF: int32((raw/3)%math.MaxInt32) + 1}
		if raw%3 != 1 {
			a = append(a, p)
		}
		if raw%3 != 0 {
			b = append(b, p)
		}
	}
	return a, b
}

// fuzzBuilds returns the three ways a list reaches the kernel: grown by
// add (an encoded prefix plus a raw tail of any length), adopted from
// wire form as Import does, and a wire prefix extended by add (a
// restored index that replays or ingests more documents).
func fuzzBuilds(t *testing.T, posts []Posting) []postingList {
	var added postingList
	for _, p := range posts {
		added.add(p.ID, p.TF)
	}
	adopt := func(w PostingList) postingList {
		last, err := checkWirePostings(w, maxFuzzID)
		if err != nil {
			t.Fatalf("wire form of %d postings rejected: %v", w.N, err)
		}
		return postingList{enc: w.Enc[:len(w.Enc):len(w.Enc)], encN: w.N, lastID: last}
	}
	half := len(posts) / 2
	var prefix postingList
	for _, p := range posts[:half] {
		prefix.add(p.ID, p.TF)
	}
	extended := adopt(prefix.export())
	for _, p := range posts[half:] {
		extended.add(p.ID, p.TF)
	}
	return []postingList{added, adopt(added.export()), extended}
}

// FuzzPostingKernel checks that the kernel's scores are bit-equal to the
// literal (1 + ln tf)·idf fold over the test cursor, and that it
// registers ids in the same first-touch order, for every way a list can
// be built.
func FuzzPostingKernel(f *testing.F) {
	f.Add([]byte{0, 3, 0, 4, 1, 5, 2, 200, 1})                    // adjacent ids, one-byte pairs
	f.Add([]byte{0x80, 0x01, 3, 0xff, 0x7f, 0xc0, 0x01, 5, 1, 2}) // 2- and 3-byte gaps, tf ≥ 64
	f.Add(func() []byte {                                         // a flushed prefix plus a raw tail
		var d []byte
		for i := 0; i < 40; i++ {
			d = append(d, byte(i%5), byte(i%7))
		}
		return d
	}())
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b := fuzzLists(data)
		idf := func(posts []Posting) float64 {
			if len(posts) == 0 {
				return 1
			}
			return math.Log(1 + float64(maxFuzzID)/float64(len(posts)))
		}
		idfs := []float64{idf(a), idf(b)}

		buildsA, buildsB := fuzzBuilds(t, a), fuzzBuilds(t, b)

		// The oracle: the literal formula folded over the test cursor,
		// term by term in list order.
		want := map[int32]float64{}
		var order []int32
		for term, pl := range []postingList{buildsA[0], buildsB[0]} {
			for c := pl.cursor(); ; {
				id, tf, ok := c.next()
				if !ok {
					break
				}
				if _, seen := want[id]; !seen {
					order = append(order, id)
				}
				want[id] += (1 + math.Log(float64(tf))) * idfs[term]
			}
		}

		ix := &Index{terms: map[string]int32{"a": 0, "b": 1}}
		for _, la := range buildsA {
			for _, lb := range buildsB {
				acc := getAcc(maxFuzzID)
				ix.accumulateLocked(acc, []postingList{la, lb}, []string{"a", "b"}, idfs)
				if !slices.Equal(acc.touched, order) {
					t.Fatalf("kernel touched %v, oracle %v", acc.touched, order)
				}
				for _, id := range order {
					if got := acc.scores[id]; math.Float64bits(got) != math.Float64bits(want[id]) {
						t.Fatalf("id %d: kernel %.17g, oracle %.17g", id, got, want[id])
					}
				}
				putAcc(acc)
			}
		}
	})
}

// FuzzTokenBlockWindow checks that decoding any passage-sized window of
// sentences straight from a token block equals the same subslice of the
// whole-document decode of the test oracle.
func FuzzTokenBlockWindow(f *testing.F) {
	f.Add("Weather in Alderford, January 1998.\nMonday, January 5, 1998: high 8º C (46F), low 2º C.\n\nSunny.")
	f.Add("El Prat. Barcelona -4,5 °C! Really? Yes.\nTuesday\nWednesday: 12 degrees celsius.")
	f.Add("One.")
	f.Fuzz(func(t *testing.T, text string) {
		sents := nlp.SplitQuerySentences(text) // reads the intern pool, never grows it
		if len(sents) == 0 {
			return
		}
		var tags, lemmas []string
		block, nToks := encodeTokenBlock(nil, sents, map[string]int{}, &tags, map[string]int{}, &lemmas)
		if err := validateTokenBlock(block, len(text), len(sents), nToks, len(tags), len(lemmas)); err != nil {
			t.Fatalf("encoded block fails validation: %v", err)
		}
		whole := decodeTokenBlock(block, text, len(sents), tags, lemmas)
		for from := range sents {
			for to := from + 1; to <= min(from+DefaultPassageSize, len(sents)); to++ {
				got := decodeTokenWindow(block, text, from, to, len(sents), nToks, tags, lemmas)
				if !reflect.DeepEqual(got, whole[from:to]) {
					t.Fatalf("window [%d:%d) of %d sentences:\n got %+v\nwant %+v", from, to, len(sents), got, whole[from:to])
				}
			}
		}
	})
}
