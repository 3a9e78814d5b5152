package nl2olap

import (
	"math/rand"
	"strings"
	"testing"

	"dwqa/internal/nlp"
	"dwqa/internal/ontology"
)

// TestAppendFoldedMatchesNormalisers checks the allocation-free fold
// against the two normalisers it stands in for, on random ASCII strings
// over letters, spaces, tabs and hyphens, split into tokens at random.
func TestAppendFoldedMatchesNormalisers(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const alphabet = "aZb- \t-Q"
	for n := 0; n < 5000; n++ {
		var b strings.Builder
		for i := rng.Intn(12); i > 0; i-- {
			b.WriteByte(alphabet[rng.Intn(len(alphabet))])
		}
		s := b.String()
		if got, _ := appendFolded(nil, s, false); string(got) != ontology.Normalize(s) {
			t.Fatalf("fold %q = %q, ontology.Normalize = %q", s, got, ontology.Normalize(s))
		}
		var toks []nlp.Token
		for rest := s; rest != ""; {
			k := 1 + rng.Intn(len(rest))
			toks = append(toks, nlp.Token{Text: rest[:k]})
			rest = rest[k:]
		}
		var got []byte
		for _, tok := range toks {
			got, _ = appendFolded(got, tok.Text, true)
		}
		if string(got) != normSpan(toks) {
			t.Fatalf("fold of tokens %q = %q, normSpan = %q", s, got, normSpan(toks))
		}
	}
}
