package nlp

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Sentence is a contiguous span of analysed tokens plus its byte span in
// the original text. Sentences are the unit from which the IR-n substrate
// builds passages (footnote 6 of the paper: "each passage is formed by a
// number of consecutive sentences in the document").
type Sentence struct {
	Tokens []Token
	Start  int // byte offset of the first token
	End    int // byte offset one past the last token
}

// Text reconstructs a plain-text rendering of the sentence from its tokens.
func (s Sentence) Text() string {
	var b strings.Builder
	for i, t := range s.Tokens {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(t.Text)
	}
	return b.String()
}

// ContentLemmas returns the lemmas of content words in the sentence,
// lower-cased, stopwords removed.
func (s Sentence) ContentLemmas() []string {
	var out []string
	for _, t := range s.Tokens {
		if t.IsContentWord() && !IsStopword(t.Lemma) {
			out = append(out, t.Lemma)
		}
	}
	return out
}

// SplitSentences analyses document text (Analyze) and groups the tokens
// into sentences. Boundaries are sentence-final punctuation (. ! ?) not
// inside a decimal number, and blank lines (which web page extraction
// produces between blocks). A lone newline also ends a sentence when the
// next line starts with a capital or digit — web weather pages are
// line-structured.
func SplitSentences(text string) []Sentence { return splitSentences(text, Analyze(text)) }

// SplitQuerySentences is SplitSentences for query text: the same
// sentences, analysed by AnalyzeQuery so the intern pool is only read.
func SplitQuerySentences(text string) []Sentence {
	return splitSentences(text, AnalyzeQuery(text))
}

// splitSentences groups the analysed tokens of text into sentences.
func splitSentences(text string, toks []Token) []Sentence {
	var sents []Sentence
	start := 0
	// Sentences are capacity-clamped subslices of the single token slice
	// Analyze returned — the whole document's tokens live in one arena
	// allocation instead of one copy per sentence.
	flush := func(end int) {
		if end > start {
			seg := toks[start:end:end]
			sents = append(sents, Sentence{
				Tokens: seg,
				Start:  seg[0].Start,
				End:    seg[len(seg)-1].End,
			})
			start = end
		}
	}
	for i, t := range toks {
		if t.Tag == TagSENT {
			flush(i + 1)
			continue
		}
		// Newline-based boundary between this token and the next.
		if i+1 < len(toks) {
			gap := text[t.End:toks[i+1].Start]
			if strings.Count(gap, "\n") >= 2 {
				flush(i + 1)
				continue
			}
			if strings.Contains(gap, "\n") && startsUpperOrDigit(toks[i+1].Text) {
				flush(i + 1)
			}
		}
	}
	flush(len(toks))
	return sents
}

func startsUpperOrDigit(s string) bool {
	r, _ := utf8.DecodeRuneInString(s)
	return unicode.IsUpper(r) || unicode.IsDigit(r)
}
