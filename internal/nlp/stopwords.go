package nlp

// stopwords is the stop list applied by the IR side of the system. The
// paper contrasts QA and IR precisely on this point: "IR systems ...
// usually discard what is known as stop-words", so the list lives here and
// the IR substrate applies it, while the QA question analysis keeps every
// token. "may" is not listed: the tagger tags the modal MD, which is
// never a content word, and the month NP, which is a term like any other
// month name.
var stopwords = map[string]bool{
	"a": true, "an": true, "the": true, "of": true, "in": true, "on": true,
	"at": true, "by": true, "for": true, "with": true, "from": true,
	"to": true, "into": true, "about": true, "as": true, "is": true,
	"be": true, "are": true, "was": true, "were": true, "been": true,
	"am": true, "do": true, "does": true, "did": true, "have": true,
	"has": true, "had": true, "and": true, "or": true, "but": true,
	"not": true, "no": true, "nor": true, "so": true, "if": true,
	"it": true, "its": true, "this": true, "that": true, "these": true,
	"those": true, "he": true, "she": true, "they": true, "them": true,
	"his": true, "her": true, "their": true, "we": true, "us": true,
	"our": true, "you": true, "your": true, "i": true, "me": true,
	"my": true, "what": true, "which": true, "who": true, "whom": true,
	"whose": true, "when": true, "where": true, "why": true, "how": true,
	"all": true, "each": true, "every": true, "some": true, "any": true,
	"there": true, "here": true, "than": true, "then": true, "too": true,
	"very": true, "can": true, "will": true, "would": true, "could": true,
	"should": true, "might": true, "must": true, "shall": true,
	"like": true, "also": true, "just": true, "only": true, "such": true,
}

// IsStopword reports whether the lower-cased lemma is on the IR stop list.
func IsStopword(lemma string) bool { return stopwords[lemma] }
