// Package nlp provides the natural-language-processing substrate of the
// AliQAn reproduction: tokenisation, part-of-speech tagging, lemmatisation
// and sentence splitting.
//
// The paper's AliQAn system relies on the external tools Maco+ and
// TreeTagger for morphological analysis. This package replaces them with a
// self-contained lexicon-plus-heuristics analyzer that emits the same
// annotation alphabet the paper prints in Table 1: NP (proper noun),
// NN/NNS (common noun), CD (number), IN/OF (preposition), DT (determiner),
// VBZ and friends (verbs), WP (wh-pronoun) and SENT (sentence punctuation).
package nlp

import "fmt"

// Tag is a Penn-Treebank-style part-of-speech tag restricted to the subset
// used by the paper's trace format plus the closed classes needed to tag
// the evaluation texts.
type Tag string

// The tag inventory. TagOF is split from TagIN because the paper's Table 1
// prints the preposition "of" with its own OF tag.
const (
	TagNP   Tag = "NP"   // proper noun
	TagNN   Tag = "NN"   // common noun, singular
	TagNNS  Tag = "NNS"  // common noun, plural
	TagCD   Tag = "CD"   // cardinal number (incl. ordinals such as "12th")
	TagIN   Tag = "IN"   // preposition
	TagOF   Tag = "OF"   // the preposition "of"
	TagDT   Tag = "DT"   // determiner
	TagJJ   Tag = "JJ"   // adjective
	TagRB   Tag = "RB"   // adverb
	TagVB   Tag = "VB"   // verb, base form
	TagVBZ  Tag = "VBZ"  // verb, 3rd person singular present
	TagVBP  Tag = "VBP"  // verb, non-3rd person present
	TagVBD  Tag = "VBD"  // verb, past tense
	TagVBG  Tag = "VBG"  // verb, gerund
	TagVBN  Tag = "VBN"  // verb, past participle
	TagMD   Tag = "MD"   // modal
	TagTO   Tag = "TO"   // infinitival "to"
	TagWP   Tag = "WP"   // wh-pronoun (what, who, which...)
	TagWRB  Tag = "WRB"  // wh-adverb (when, where, how...)
	TagPRP  Tag = "PRP"  // personal pronoun
	TagPRPS Tag = "PRP$" // possessive pronoun
	TagCC   Tag = "CC"   // coordinating conjunction
	TagEX   Tag = "EX"   // existential "there"
	TagSENT Tag = "SENT" // sentence-final punctuation
	TagPunc Tag = ","    // non-final punctuation (comma, colon, ...)
	TagSYM  Tag = "SYM"  // symbols (%, º, $ ...)
	TagUH   Tag = "UH"   // interjection
)

// IsVerb reports whether the tag denotes a verbal category.
func (t Tag) IsVerb() bool {
	switch t {
	case TagVB, TagVBZ, TagVBP, TagVBD, TagVBG, TagVBN, TagMD:
		return true
	}
	return false
}

// IsNoun reports whether the tag denotes a nominal category (common or
// proper).
func (t Tag) IsNoun() bool {
	switch t {
	case TagNN, TagNNS, TagNP:
		return true
	}
	return false
}

// IsPreposition reports whether the tag is IN or OF.
func (t Tag) IsPreposition() bool { return t == TagIN || t == TagOF }

// Token is a single analysed token: surface form, byte offsets into the
// original text, part-of-speech tag and lemma.
type Token struct {
	Text  string // surface form exactly as it appears in the input
	Lemma string // lemma (lower-cased base form)
	Tag   Tag    // part-of-speech tag
	Start int    // byte offset of the first byte in the input
	End   int    // byte offset one past the last byte
}

// String renders the token in the paper's trace format:
// "Term Lexical_type Lemma", e.g. "January NP january".
func (t Token) String() string {
	return fmt.Sprintf("%s %s %s", t.Text, t.Tag, t.Lemma)
}

// IsContentWord reports whether the token belongs to an open class that
// carries meaning for retrieval (nouns, verbs other than auxiliaries,
// adjectives, adverbs, numbers).
func (t Token) IsContentWord() bool {
	switch t.Tag {
	case TagNN, TagNNS, TagNP, TagCD, TagJJ, TagRB,
		TagVB, TagVBZ, TagVBP, TagVBD, TagVBG, TagVBN:
		return t.Lemma != "be" && t.Lemma != "have" && t.Lemma != "do"
	}
	return false
}
