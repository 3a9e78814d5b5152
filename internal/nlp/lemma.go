package nlp

import "strings"

// irregularLemmas maps irregular inflected forms to their lemma.
var irregularLemmas = map[string]string{
	// be / have / do
	"is": "be", "am": "be", "are": "be", "was": "be", "were": "be",
	"been": "be", "being": "be",
	"has": "have", "had": "have", "having": "have",
	"does": "do", "did": "do", "done": "do", "doing": "do",
	// frequent irregular verbs
	"went": "go", "gone": "go", "came": "come", "saw": "see", "seen": "see",
	"took": "take", "taken": "take", "got": "get", "gotten": "get",
	"made": "make", "said": "say", "sold": "sell", "bought": "buy",
	"flew": "fly", "flown": "fly", "shone": "shine", "fell": "fall",
	"rose": "rise", "met": "meet", "held": "hold", "left": "leave",
	"found": "find", "gave": "give", "given": "give", "knew": "know",
	"known": "know", "thought": "think", "brought": "bring",
	// irregular plurals
	"people": "person", "children": "child", "men": "man", "women": "woman",
	"feet": "foot", "teeth": "tooth", "mice": "mouse", "geese": "goose",
	"data": "datum", "criteria": "criterion", "indices": "index",
	// comparatives that the suffix stripper must not mangle
	"best": "good", "better": "good", "worst": "bad", "worse": "bad",
}

// Lemmatize returns the lemma (lower-cased base form) of a word given its
// tag. Proper nouns and numbers are lower-cased but otherwise unchanged,
// matching the paper's trace ("January NP january", "8 CD 8").
func Lemmatize(word string, tag Tag) string {
	return lemmatizeLower(Intern(strings.ToLower(word)), tag, Intern)
}

// lemmatizeLower is Lemmatize over an already lower-cased, canonical
// form. A derived lemma passes through canon too: for document analysis
// that is Intern, so every occurrence of a lemma across the whole corpus
// is one heap string — the storage the analysed sentences (and through
// them the IR term dictionary) retain; query analysis passes the
// insert-free lookup.
func lemmatizeLower(lower string, tag Tag, canon func(string) string) string {
	if lemma, ok := irregularLemmas[lower]; ok {
		return lemma
	}
	switch tag {
	case TagCD:
		return canon(stripOrdinal(lower))
	case TagNNS:
		return canon(singularize(lower))
	case TagVBZ:
		return canon(unverbThirdPerson(lower))
	case TagVBD, TagVBN:
		return canon(strip("ed", lower))
	case TagVBG:
		return canon(strip("ing", lower))
	default:
		return lower
	}
}

// stripOrdinal reduces ordinal numerals to their cardinal lemma ("14th" →
// "14") so question terms match document tokens.
func stripOrdinal(lower string) string {
	for _, suf := range [...]string{"st", "nd", "rd", "th"} {
		if trimmed, ok := strings.CutSuffix(lower, suf); ok && trimmed != "" {
			allDigits := true
			for i := 0; i < len(trimmed); i++ {
				if trimmed[i] < '0' || trimmed[i] > '9' {
					allDigits = false
					break
				}
			}
			if allDigits {
				return trimmed
			}
		}
	}
	return lower
}

// singularize applies English plural-stripping rules.
func singularize(lower string) string {
	switch {
	case strings.HasSuffix(lower, "ies") && len(lower) > 4:
		return lower[:len(lower)-3] + "y" // skies → sky, cities → city
	case strings.HasSuffix(lower, "ves") && len(lower) > 4:
		return lower[:len(lower)-3] + "f" // leaves → leaf (lossy but rare)
	case strings.HasSuffix(lower, "xes"), strings.HasSuffix(lower, "ses"),
		strings.HasSuffix(lower, "zes"), strings.HasSuffix(lower, "ches"),
		strings.HasSuffix(lower, "shes"):
		return lower[:len(lower)-2] // boxes → box, buses → bus
	case strings.HasSuffix(lower, "s") && !strings.HasSuffix(lower, "ss") &&
		!strings.HasSuffix(lower, "us") && !strings.HasSuffix(lower, "is") &&
		len(lower) > 2:
		return lower[:len(lower)-1]
	default:
		return lower
	}
}

func unverbThirdPerson(lower string) string {
	switch {
	case strings.HasSuffix(lower, "ies") && len(lower) > 4:
		return lower[:len(lower)-3] + "y" // flies → fly
	case strings.HasSuffix(lower, "es") && len(lower) > 3 &&
		(strings.HasSuffix(lower, "ches") || strings.HasSuffix(lower, "shes") ||
			strings.HasSuffix(lower, "xes") || strings.HasSuffix(lower, "ses") ||
			strings.HasSuffix(lower, "zes") || strings.HasSuffix(lower, "oes")):
		return lower[:len(lower)-2] // goes → go, watches → watch
	case strings.HasSuffix(lower, "s") && !strings.HasSuffix(lower, "ss") &&
		len(lower) > 2:
		return lower[:len(lower)-1]
	default:
		return lower
	}
}

// knownBases lists verb base forms consulted before the e-restoration
// heuristics: if the stripped stem (or stem+"e") is a known base it wins.
// Real lemmatisers are lexicon-first for exactly this ambiguity
// ("invaded"→invade but "recorded"→record).
var knownBases = map[string]bool{
	"invade": true, "arrive": true, "hope": true, "note": true,
	"close": true, "increase": true, "decrease": true, "use": true,
	"store": true, "live": true, "move": true, "change": true,
	"produce": true, "provide": true, "require": true, "create": true,
	"generate": true, "analyze": true, "compare": true, "define": true,
	"describe": true, "include": true, "propose": true, "retrieve": true,
	"record": true, "report": true, "visit": true, "open": true,
	"drop": true, "stop": true, "plan": true, "travel": true,
	"reach": true, "measure": true, "rain": true, "snow": true,
	"expect": true, "remain": true, "stay": true, "hover": true,
	"land": true, "board": true, "book": true, "depart": true,
	"schedule": true, "cancel": true, "delay": true, "promote": true,
}

// strip removes a verbal suffix, restoring a dropped final "e" when the
// remaining stem looks like it needs one (lexicon first, then CVC+e
// pattern heuristics).
func strip(suffix, lower string) string {
	if !strings.HasSuffix(lower, suffix) || len(lower) <= len(suffix)+1 {
		return lower
	}
	stem := lower[:len(lower)-len(suffix)]
	if knownBases[stem] {
		return stem
	}
	if knownBases[stem+"e"] {
		return stem + "e"
	}
	// Doubled final consonant from gemination: dropped → drop, stopped → stop.
	n := len(stem)
	if n >= 2 && stem[n-1] == stem[n-2] && isConsonant(stem[n-1]) &&
		stem[n-1] != 'l' && stem[n-1] != 's' {
		return stem[:n-1]
	}
	// Restore final "e": hoped → hope, arriving → arrive.
	if n >= 2 && isConsonant(stem[n-1]) && isVowelByte(stem[n-2]) &&
		!strings.HasSuffix(stem, "w") && !strings.HasSuffix(stem, "x") &&
		!strings.HasSuffix(stem, "y") {
		// Heuristic: restore e after soft endings commonly requiring it.
		switch stem[n-1] {
		case 'v', 'c', 'g', 'z', 'u':
			return stem + "e"
		}
	}
	return stem
}

func isConsonant(b byte) bool { return b >= 'a' && b <= 'z' && !isVowelByte(b) }

func isVowelByte(b byte) bool {
	switch b {
	case 'a', 'e', 'i', 'o', 'u':
		return true
	}
	return false
}
