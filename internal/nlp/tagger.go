package nlp

import (
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Analyze tokenises and tags document text, filling in lemma, tag and
// offsets for every token. It is the entry point equivalent to running
// the paper's Maco+/TreeTagger step. Each token is lower-cased exactly
// once into an interned form shared by the tagger and the lemmatiser
// (previously both lowered independently, doubling the dominant
// index-time allocation).
func Analyze(text string) []Token { return analyze(text, Intern) }

// AnalyzeQuery is Analyze for query text — questions and retrieval
// keywords, i.e. user input. Tokens, tags and lemmas are identical to
// Analyze's; the only difference is that word forms and lemmas are
// looked up in the intern pool, never added to it, so unbounded traffic
// cannot grow the process-wide pool.
func AnalyzeQuery(text string) []Token { return analyze(text, lookup) }

// analyze is the shared body of Analyze and AnalyzeQuery; canon maps a
// lower-cased form or lemma to the instance tokens keep.
func analyze(text string, canon func(string) string) []Token {
	toks := Tokenize(text)
	lowers := make([]string, len(toks))
	for i := range toks {
		lowers[i] = canon(strings.ToLower(toks[i].Text))
	}
	tagTokens(toks, lowers)
	for i := range toks {
		toks[i].Lemma = lemmatizeLower(lowers[i], toks[i].Tag, canon)
	}
	return toks
}

// tagTokens assigns a part-of-speech tag to every token in place.
// lowers[i] is the lower-cased form of toks[i].Text.
func tagTokens(toks []Token, lowers []string) {
	for i := range toks {
		toks[i].Tag = tagOne(toks, i, lowers[i])
	}
	// Contextual repair passes.
	for i := range toks {
		// A determiner is never followed directly by a verb reading for an
		// ambiguous word: "the record" → record/NN.
		if i > 0 && toks[i-1].Tag == TagDT && toks[i].Tag.IsVerb() &&
			toks[i].Tag != TagVBN && toks[i].Tag != TagVBG {
			toks[i].Tag = TagNN
		}
		// "to" followed by a verb stays TO; followed by an NP it acts as a
		// preposition for chunking purposes.
		if toks[i].Tag == TagTO && i+1 < len(toks) && !toks[i+1].Tag.IsVerb() {
			toks[i].Tag = TagIN
		}
	}
}

func tagOne(toks []Token, i int, lower string) Tag {
	text := toks[i].Text

	// The degree markers are tagged NN, matching the paper's Table 1
	// passage analysis ("8 CD 8 º NN º C NP c").
	if text == "º" || text == "°" {
		return TagNN
	}

	// Punctuation and symbols.
	r, _ := utf8.DecodeRuneInString(text)
	if !unicode.IsLetter(r) && !unicode.IsDigit(r) {
		switch text {
		case ".", "?", "!":
			return TagSENT
		case ",", ":", ";", "(", ")", "\"", "'", "-", "–", "—", "/":
			return TagPunc
		default:
			return TagSYM // º, %, $, €...
		}
	}

	// Numbers and ordinals.
	if unicode.IsDigit(r) {
		return TagCD
	}
	switch lower {
	case "one", "two", "three", "four", "five", "six", "seven", "eight",
		"nine", "ten", "eleven", "twelve", "twenty", "thirty", "hundred",
		"thousand", "million":
		return TagCD
	}

	// Month and weekday names are proper nouns in the paper's traces.
	// "may" is a month only in date context; otherwise it is the modal.
	if _, ok := monthNames[lower]; ok && (lower != "may" || mayIsMonth(toks, i)) {
		return TagNP
	}
	if dayNames[lower] {
		return TagNP
	}

	// Closed-class and frequent-word lexicon.
	if tag, ok := lexicon[lower]; ok {
		// Capitalised lexicon entries mid-sentence are usually part of a
		// proper name ("Barcelona Weather", "Clear skies" in the paper's
		// passage analysis): prefer NP when capitalised and not
		// sentence-initial and the lexicon tag is an open class.
		if isCapitalized(text) && !sentenceInitial(toks, i) && isOpenClass(tag) {
			return TagNP
		}
		return tag
	}

	// Single capital letters are unit/proper symbols: "C", "F".
	if len(text) == 1 && unicode.IsUpper(r) {
		return TagNP
	}

	// Capitalised unknown words are proper nouns. Sentence-initial words
	// get the benefit of the doubt only when they look name-like (no
	// lexicon entry and no recognisable suffix).
	if isCapitalized(text) {
		if !sentenceInitial(toks, i) {
			return TagNP
		}
		if suffixTag(lower) == TagNN {
			return TagNP
		}
	}

	return suffixTag(lower)
}

// mayIsMonth reports whether "may" at toks[i] stands in date context:
// before a day number or a year ("May 3", "May 2004"), before "of" and a
// year ("May of 2004"), or after "in", "of" or a day number ("in May",
// "the 12th of May", "3 May").
func mayIsMonth(toks []Token, i int) bool {
	if i+1 < len(toks) {
		next := toks[i+1].Text
		if isDayNumber(next) || isYear(next) ||
			strings.EqualFold(next, "of") && i+2 < len(toks) && isYear(toks[i+2].Text) {
			return true
		}
	}
	if i > 0 {
		prev := toks[i-1].Text
		return strings.EqualFold(prev, "in") || strings.EqualFold(prev, "of") || isDayNumber(prev)
	}
	return false
}

// isDayNumber reports whether text is a day of the month in digits,
// ordinal suffix allowed ("3", "12th").
func isDayNumber(text string) bool {
	n, err := strconv.Atoi(stripOrdinal(text))
	return err == nil && n >= 1 && n <= 31
}

// isYear reports whether text is a four-digit year.
func isYear(text string) bool {
	n, err := strconv.Atoi(text)
	return err == nil && len(text) == 4 && n >= 1000
}

// suffixTag guesses the tag of an unknown lower-cased word from its suffix.
func suffixTag(lower string) Tag {
	switch {
	case strings.HasSuffix(lower, "ly"):
		return TagRB
	case strings.HasSuffix(lower, "ing") && len(lower) > 4:
		return TagVBG
	case strings.HasSuffix(lower, "ed") && len(lower) > 3:
		return TagVBD
	case strings.HasSuffix(lower, "ous"), strings.HasSuffix(lower, "ful"),
		strings.HasSuffix(lower, "ive"), strings.HasSuffix(lower, "able"),
		strings.HasSuffix(lower, "ible"), strings.HasSuffix(lower, "ical"),
		strings.HasSuffix(lower, "less"), strings.HasSuffix(lower, "est"):
		return TagJJ
	case strings.HasSuffix(lower, "tion"), strings.HasSuffix(lower, "sion"),
		strings.HasSuffix(lower, "ment"), strings.HasSuffix(lower, "ness"),
		strings.HasSuffix(lower, "ity"), strings.HasSuffix(lower, "ism"),
		strings.HasSuffix(lower, "ure"), strings.HasSuffix(lower, "ance"),
		strings.HasSuffix(lower, "ence"):
		return TagNN
	case strings.HasSuffix(lower, "s") && !strings.HasSuffix(lower, "ss") &&
		!strings.HasSuffix(lower, "us") && !strings.HasSuffix(lower, "is") &&
		len(lower) > 3:
		return TagNNS
	default:
		return TagNN
	}
}

func isCapitalized(text string) bool {
	r, _ := utf8.DecodeRuneInString(text)
	return unicode.IsUpper(r)
}

func isOpenClass(t Tag) bool {
	switch t {
	case TagNN, TagNNS, TagJJ, TagRB, TagVB, TagVBZ, TagVBP, TagVBD, TagVBG, TagVBN:
		return true
	}
	return false
}

// sentenceInitial reports whether token i starts a sentence (is first, or
// preceded by sentence punctuation).
func sentenceInitial(toks []Token, i int) bool {
	for j := i - 1; j >= 0; j-- {
		switch toks[j].Text {
		case ".", "?", "!", ":", "\n":
			return true
		}
		// Any word token before us means we are not sentence-initial.
		r, _ := utf8.DecodeRuneInString(toks[j].Text)
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			return false
		}
	}
	return true
}
