package ir

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
)

// CompressPostings encodes a raw ascending posting slice into wire form
// in one shot — the reference the incremental encoder is checked against.
func CompressPostings(posts []Posting) PostingList {
	if len(posts) == 0 {
		return PostingList{}
	}
	enc := make([]byte, 0, 3*len(posts))
	prev := int32(-1)
	for _, p := range posts {
		enc = appendPosting(enc, prev, p)
		prev = p.ID
	}
	return PostingList{N: int32(len(posts)), Enc: enc}
}

// DecodePostings materialises a wire-form list back into a raw slice —
// the inverse of CompressPostings. Malformed
// input yields a short result; use checkWirePostings to validate.
func (pl PostingList) DecodePostings() []Posting {
	out := make([]Posting, 0, pl.N)
	c := postingCursor{enc: pl.Enc, rem: pl.N, prev: -1}
	for {
		id, tf, ok := c.next()
		if !ok {
			return out
		}
		out = append(out, Posting{ID: id, TF: tf})
	}
}

// TestCompressRoundTripEdgeCases round-trips the wire encoding over the
// shapes that stress the delta/varint format: singletons, id 0, maximal
// gaps, and multi-byte tfs.
func TestCompressRoundTripEdgeCases(t *testing.T) {
	cases := []struct {
		name  string
		posts []Posting
	}{
		{"empty", nil},
		{"single posting", []Posting{{ID: 42, TF: 3}}},
		{"single posting id zero", []Posting{{ID: 0, TF: 1}}},
		{"single posting max id", []Posting{{ID: math.MaxInt32 - 1, TF: 1}}},
		{"max gap from start", []Posting{{ID: 0, TF: 1}, {ID: math.MaxInt32 - 1, TF: 1}}},
		{"adjacent ids", []Posting{{ID: 5, TF: 1}, {ID: 6, TF: 2}, {ID: 7, TF: 1}}},
		{"large tf", []Posting{{ID: 1, TF: math.MaxInt32}, {ID: 2, TF: 1 << 20}}},
		{"varint width boundaries", []Posting{
			{ID: 126, TF: 127}, {ID: 127 + 126, TF: 128}, {ID: 1<<14 + 300, TF: 1 << 14},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := CompressPostings(tc.posts)
			got := w.DecodePostings()
			if len(tc.posts) == 0 {
				if w.N != 0 || w.Enc != nil || len(got) != 0 {
					t.Fatalf("empty list encoded to %d/%v, decoded %v", w.N, w.Enc, got)
				}
				return
			}
			if !reflect.DeepEqual(got, tc.posts) {
				t.Fatalf("round trip diverges:\n got %+v\nwant %+v", got, tc.posts)
			}
			// The wire form must satisfy its own validator.
			limit := int(tc.posts[len(tc.posts)-1].ID) + 1
			last, err := checkWirePostings(w, limit)
			if err != nil {
				t.Fatalf("checkWirePostings rejects valid encoding: %v", err)
			}
			if last != tc.posts[len(tc.posts)-1].ID {
				t.Fatalf("checkWirePostings lastID = %d, want %d", last, tc.posts[len(tc.posts)-1].ID)
			}
		})
	}
}

// TestPostingListThresholdCrossing feeds a list one posting at a time
// across the flush threshold and checks that (a) the cursor always yields
// the full sequence and (b) the exported bytes equal a one-shot encode —
// the canonical-wire-form property incremental flushing must preserve.
func TestPostingListThresholdCrossing(t *testing.T) {
	var pl postingList
	var want []Posting
	for i := 0; i < 3*encodeThreshold+5; i++ {
		id := int32(i*7 + i%3) // uneven gaps
		tf := int32(i%5 + 1)
		pl.add(id, tf)
		want = append(want, Posting{ID: id, TF: tf})

		if pl.count() != len(want) {
			t.Fatalf("after %d adds: count = %d", len(want), pl.count())
		}
		var got []Posting
		for c := pl.cursor(); ; {
			id, tf, ok := c.next()
			if !ok {
				break
			}
			got = append(got, Posting{ID: id, TF: tf})
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("after %d adds cursor diverges:\n got %+v\nwant %+v", len(want), got, want)
		}
		if w, oneShot := pl.export(), CompressPostings(want); w.N != oneShot.N || !bytes.Equal(w.Enc, oneShot.Enc) {
			t.Fatalf("after %d adds export is not canonical (encN=%d raw=%d)", len(want), pl.encN, len(pl.raw))
		}
	}
	// The list must actually have flushed at least once and hold a raw
	// tail right now — otherwise the loop above tested nothing hybrid.
	if pl.encN == 0 || len(pl.raw) == 0 {
		t.Fatalf("test never exercised the hybrid state: encN=%d raw=%d", pl.encN, len(pl.raw))
	}
}

// TestSnapshotMixedRawCompressedLists snapshots an index whose lists span
// both storage regimes — rare terms still raw, a frequent term with an
// encoded prefix — and checks the restored index re-exports byte-identical
// postings and answers identically.
func TestSnapshotMixedRawCompressedLists(t *testing.T) {
	src := NewIndex(WithPassageSize(1), WithStride(1))
	// "common" appears in every sentence → its passage list crosses the
	// flush threshold. Each "rareN" appears exactly once → single-posting
	// raw lists.
	var sb strings.Builder
	for i := 0; i < 2*encodeThreshold; i++ {
		sb.WriteString("common weather rare")
		for j := 0; j <= i%4; j++ {
			sb.WriteByte('a' + byte(i%26))
		}
		sb.WriteString(" report. ")
	}
	if err := src.AddBatch([]Document{{URL: "http://w/mix", Text: sb.String()}}); err != nil {
		t.Fatal(err)
	}

	// Verify the corpus produced both regimes before snapshotting.
	src.mu.RLock()
	var sawEncoded, sawRawOnly bool
	for i := range src.postings {
		if src.postings[i].encN > 0 {
			sawEncoded = true
		}
		if src.postings[i].encN == 0 && len(src.postings[i].raw) > 0 {
			sawRawOnly = true
		}
	}
	src.mu.RUnlock()
	if !sawEncoded || !sawRawOnly {
		t.Fatalf("corpus does not mix regimes: encoded=%v rawOnly=%v", sawEncoded, sawRawOnly)
	}

	snap := src.Export()
	dst := NewIndex()
	if err := dst.Import(snap); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dst.Export(), snap) {
		t.Fatal("mixed-regime snapshot does not re-export byte-identical")
	}
	for _, q := range []string{"common report", "weather", "rarea"} {
		terms := QueryTerms(q)
		if got, want := dst.Search(terms, 8), src.Search(terms, 8); !reflect.DeepEqual(got, want) {
			t.Fatalf("Search(%q) diverges after mixed-regime restore:\n got %+v\nwant %+v", q, got, want)
		}
	}

	// Growth after restore: adds append to the adopted wire bytes without
	// corrupting them, and both indexes keep agreeing.
	extra := Document{URL: "http://w/more", Text: "common weather continues. rareb returns again."}
	if err := src.AddBatch([]Document{extra}); err != nil {
		t.Fatal(err)
	}
	if err := dst.AddBatch([]Document{extra}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dst.Export(), src.Export()) {
		t.Fatal("post-restore growth diverges from the eager index")
	}
}
