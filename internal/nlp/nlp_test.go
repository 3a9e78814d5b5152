package nlp

import (
	"strings"
	"testing"
	"testing/quick"
	"unicode/utf8"
)

func tokenTexts(toks []Token) []string {
	out := make([]string, len(toks))
	for i, t := range toks {
		out[i] = t.Text
	}
	return out
}

func TestTokenizeBasic(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"Hello world", []string{"Hello", "world"}},
		{"What is the temperature?", []string{"What", "is", "the", "temperature", "?"}},
		{"8ºC", []string{"8", "º", "C"}},
		{"46.4 F", []string{"46.4", "F"}},
		{"Monday, January 31, 2004", []string{"Monday", ",", "January", "31", ",", "2004"}},
		{"the 12th of May, 1997", []string{"the", "12th", "of", "May", ",", "1997"}},
		{"last-minute sales", []string{"last-minute", "sales"}},
		{"El Prat", []string{"El", "Prat"}},
		{"", nil},
		{"   ", nil},
		{"don't", []string{"don't"}},
		{"(8ºC)", []string{"(", "8", "º", "C", ")"}},
	}
	for _, c := range cases {
		got := tokenTexts(Tokenize(c.in))
		if strings.Join(got, "|") != strings.Join(c.want, "|") {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestTokenizeOffsets(t *testing.T) {
	in := "Barcelona Weather: Temperature 8º C around 46.4 F"
	for _, tok := range Tokenize(in) {
		if tok.Start < 0 || tok.End > len(in) || tok.Start >= tok.End {
			t.Fatalf("bad offsets %d:%d for %q", tok.Start, tok.End, tok.Text)
		}
		if in[tok.Start:tok.End] != tok.Text {
			t.Errorf("offset mismatch: text[%d:%d]=%q, token=%q",
				tok.Start, tok.End, in[tok.Start:tok.End], tok.Text)
		}
	}
}

// Property: every token's offsets index its own surface form, tokens are
// ordered and non-overlapping, for arbitrary input strings.
func TestTokenizeOffsetsProperty(t *testing.T) {
	f := func(s string) bool {
		if !utf8.ValidString(s) {
			return true // tokenizer contract assumes valid UTF-8
		}
		toks := Tokenize(s)
		prevEnd := 0
		for _, tok := range toks {
			if tok.Start < prevEnd || tok.End > len(s) || tok.Start >= tok.End {
				return false
			}
			if s[tok.Start:tok.End] != tok.Text {
				return false
			}
			prevEnd = tok.End
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: concatenating token texts loses only whitespace.
func TestTokenizeCoversNonSpace(t *testing.T) {
	f := func(s string) bool {
		if !utf8.ValidString(s) {
			return true
		}
		var kept int
		for _, tok := range Tokenize(s) {
			kept += tok.End - tok.Start
		}
		nonSpace := 0
		for _, r := range s {
			if !isSpaceRune(r) {
				nonSpace += utf8.RuneLen(r)
			}
		}
		return kept == nonSpace
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func isSpaceRune(r rune) bool {
	switch r {
	case ' ', '\t', '\n', '\r', '\v', '\f', 0x85, 0xA0:
		return true
	}
	return r > 0xFF && strings.ContainsRune("                　", r)
}

func tagOf(t *testing.T, sentence, word string) Tag {
	t.Helper()
	for _, tok := range Analyze(sentence) {
		if tok.Text == word {
			return tok.Tag
		}
	}
	t.Fatalf("word %q not found in %q", word, sentence)
	return ""
}

func TestTaggerPaperQuery(t *testing.T) {
	// The paper's Table 1 analysis of "What is the weather like in January
	// of 2004 in El Prat?": What/WP is/VBZ the/DT weather/NN like/IN in/IN
	// January/NP of/OF 2004/CD in/IN El/NP Prat/NP ?/SENT.
	q := "What is the weather like in January of 2004 in El Prat?"
	want := map[string]Tag{
		"What": TagWP, "is": TagVBZ, "the": TagDT, "weather": TagNN,
		"like": TagIN, "in": TagIN, "January": TagNP, "of": TagOF,
		"2004": TagCD, "El": TagNP, "Prat": TagNP, "?": TagSENT,
	}
	for word, wantTag := range want {
		if got := tagOf(t, q, word); got != wantTag {
			t.Errorf("tag(%q) = %s, want %s", word, got, wantTag)
		}
	}
}

func TestTaggerPaperPassage(t *testing.T) {
	// Table 1 passage: "Monday, January 31, 2004 Barcelona Weather:
	// Temperature 8º C around 46.4 F Clear skies today".
	p := "Monday, January 31, 2004\nBarcelona Weather: Temperature 8º C around 46.4 F Clear skies today"
	want := map[string]Tag{
		"Monday": TagNP, "January": TagNP, "31": TagCD, "2004": TagCD,
		"Barcelona": TagNP, "Weather": TagNP, "Temperature": TagNN,
		// The paper's Table 1 tags the degree marker as NN ("º NN º").
		"8": TagCD, "º": TagNN, "C": TagNP, "around": TagIN,
		"46.4": TagCD, "F": TagNP, "Clear": TagNP, "skies": TagNNS,
		"today": TagNN,
	}
	for word, wantTag := range want {
		if got := tagOf(t, p, word); got != wantTag {
			t.Errorf("tag(%q) = %s, want %s", word, got, wantTag)
		}
	}
}

func TestTaggerCLEFQuestion(t *testing.T) {
	q := "Which country did Iraq invade in 1990?"
	want := map[string]Tag{
		"Which": TagWP, "country": TagNN, "did": TagVBD, "Iraq": TagNP,
		"invade": TagVB, "in": TagIN, "1990": TagCD, "?": TagSENT,
	}
	for word, wantTag := range want {
		if got := tagOf(t, q, word); got != wantTag {
			t.Errorf("tag(%q) = %s, want %s", word, got, wantTag)
		}
	}
}

func TestLemmatize(t *testing.T) {
	cases := []struct {
		word string
		tag  Tag
		want string
	}{
		{"skies", TagNNS, "sky"},
		{"cities", TagNNS, "city"},
		{"temperatures", TagNNS, "temperature"},
		{"is", TagVBZ, "be"},
		{"was", TagVBD, "be"},
		{"invaded", TagVBD, "invade"},
		{"flights", TagNNS, "flight"},
		{"January", TagNP, "january"},
		{"goes", TagVBZ, "go"},
		{"dropped", TagVBD, "drop"},
		{"hoping", TagVBG, "hope"},
		{"arriving", TagVBG, "arrive"},
		{"boxes", TagNNS, "box"},
		{"buses", TagNNS, "bus"},
		{"people", TagNNS, "person"},
		{"8", TagCD, "8"},
		{"sales", TagNNS, "sale"},
	}
	for _, c := range cases {
		if got := Lemmatize(c.word, c.tag); got != c.want {
			t.Errorf("Lemmatize(%q,%s) = %q, want %q", c.word, c.tag, got, c.want)
		}
	}
}

// Property: lemmas are always lower-case and never empty for non-empty words.
func TestLemmatizeProperty(t *testing.T) {
	tags := []Tag{TagNN, TagNNS, TagVB, TagVBZ, TagVBD, TagVBG, TagNP, TagCD}
	f := func(word string, tagIdx uint8) bool {
		if word == "" || !utf8.ValidString(word) {
			return true
		}
		lemma := Lemmatize(word, tags[int(tagIdx)%len(tags)])
		return lemma == strings.ToLower(lemma)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSplitSentences(t *testing.T) {
	text := "All stars shine but none do it like Sirius, the brightest star in the night sky. " +
		"The weather was mild. Temperatures reached 21 degrees."
	sents := SplitSentences(text)
	if len(sents) != 3 {
		t.Fatalf("got %d sentences, want 3: %v", len(sents), sents)
	}
	if !strings.Contains(sents[0].Text(), "Sirius") {
		t.Errorf("first sentence lost content: %q", sents[0].Text())
	}
}

func TestSplitSentencesDecimalsSafe(t *testing.T) {
	text := "Temperature 8º C around 46.4 F. Clear skies today."
	sents := SplitSentences(text)
	if len(sents) != 2 {
		t.Fatalf("decimal split error: got %d sentences: %v", len(sents), sents)
	}
	if !strings.Contains(sents[0].Text(), "46.4") {
		t.Errorf("decimal token broken: %q", sents[0].Text())
	}
}

func TestSplitSentencesLineStructured(t *testing.T) {
	// Weather pages are line-structured without final punctuation.
	text := "Monday, January 31, 2004\nBarcelona Weather: Temperature 8º C around 46.4 F Clear skies today\nSunday, January 30, 2004\nBarcelona Weather: Temperature 7º C around 44.6 F Light rain"
	sents := SplitSentences(text)
	if len(sents) != 4 {
		t.Fatalf("got %d sentences, want 4", len(sents))
	}
}

func TestSentenceContentLemmas(t *testing.T) {
	sents := SplitSentences("What is the temperature in January of 2004 in El Prat?")
	if len(sents) != 1 {
		t.Fatalf("want 1 sentence, got %d", len(sents))
	}
	lemmas := sents[0].ContentLemmas()
	want := map[string]bool{"temperature": true, "january": true, "2004": true, "el": true, "prat": true}
	for _, l := range lemmas {
		if !want[l] {
			t.Errorf("unexpected content lemma %q", l)
		}
		delete(want, l)
	}
	for l := range want {
		t.Errorf("missing content lemma %q", l)
	}
}

func TestIsStopword(t *testing.T) {
	for _, w := range []string{"the", "of", "is", "what"} {
		if !IsStopword(w) {
			t.Errorf("IsStopword(%q) = false, want true", w)
		}
	}
	for _, w := range []string{"temperature", "barcelona", "weather"} {
		if IsStopword(w) {
			t.Errorf("IsStopword(%q) = true, want false", w)
		}
	}
}

func TestTokenString(t *testing.T) {
	tok := Token{Text: "January", Lemma: "january", Tag: TagNP}
	if got := tok.String(); got != "January NP january" {
		t.Errorf("Token.String() = %q", got)
	}
}

func TestContentWord(t *testing.T) {
	toks := Analyze("The temperature is 8 degrees")
	var content []string
	for _, tok := range toks {
		if tok.IsContentWord() {
			content = append(content, tok.Text)
		}
	}
	want := []string{"temperature", "8", "degrees"}
	if strings.Join(content, " ") != strings.Join(want, " ") {
		t.Errorf("content words = %v, want %v", content, want)
	}
}

func TestMonthDayHelpers(t *testing.T) {
	if m, ok := IsMonthName("january"); !ok || m != 1 {
		t.Errorf("IsMonthName(january) = %d,%v", m, ok)
	}
	if m, ok := IsMonthName("may"); !ok || m != 5 {
		t.Errorf("IsMonthName(may) = %d,%v", m, ok)
	}
	if _, ok := IsMonthName("prat"); ok {
		t.Error("IsMonthName(prat) should be false")
	}
	if !IsDayName("monday") || IsDayName("barcelona") {
		t.Error("IsDayName misbehaves")
	}
}

// TestMayByContext pins the one month name that is also a modal: "may"
// is the month — a proper noun and an index term — only in date context,
// and the modal — never a term — everywhere else.
func TestMayByContext(t *testing.T) {
	cases := []struct {
		text  string
		month bool
	}{
		{"The temperature on May 3, 2004 was 20 degrees.", true},
		{"What was the weather like in May of 2004?", true},
		{"On the 12th of May, 1997 he opened a new bridge.", true},
		{"Friday, May 3, 2004", true},
		{"Barcelona Weather in May 2004 - Tourist Guide", true},
		{"It may rain in Barcelona tomorrow.", false},
		{"May I ask what the temperature is?", false},
		{"Temperatures may reach 30 degrees.", false},
	}
	for _, c := range cases {
		var tag Tag
		for _, tok := range Analyze(c.text) {
			if tok.Lemma == "may" {
				tag = tok.Tag
			}
		}
		term := false
		for _, s := range SplitSentences(c.text) {
			for _, l := range s.ContentLemmas() {
				term = term || l == "may"
			}
		}
		want := TagMD
		if c.month {
			want = TagNP
		}
		if tag != want || term != c.month {
			t.Errorf("%q: may tagged %q, index term %v; want %q, %v", c.text, tag, term, want, c.month)
		}
	}
}

func TestAnalyzeOrdinals(t *testing.T) {
	toks := Analyze("What is the weather like in John Wayne on the 12th of May, 1997?")
	var found bool
	for _, tok := range toks {
		if tok.Text == "12th" {
			found = true
			if tok.Tag != TagCD {
				t.Errorf("12th tagged %s, want CD", tok.Tag)
			}
		}
	}
	if !found {
		t.Fatal("ordinal 12th not tokenised as one token")
	}
}

func BenchmarkAnalyze(b *testing.B) {
	text := "Monday, January 31, 2004. Barcelona Weather: Temperature 8º C around 46.4 F Clear skies today."
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Analyze(text)
	}
}
