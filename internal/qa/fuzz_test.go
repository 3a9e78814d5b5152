package qa

import (
	"sync"
	"testing"

	"dwqa/internal/ir"
	"dwqa/internal/wordnet"
)

// fuzzSystem lazily builds one shared System over a small weather corpus;
// fuzz workers only read it (Answer/Harvest are concurrency-safe).
var (
	fuzzOnce sync.Once
	fuzzSys  *System
)

func fuzzSystemInit(t *testing.T) *System {
	fuzzOnce.Do(func() {
		ix := ir.NewIndex()
		docs := []ir.Document{
			{URL: "http://weather.example/bcn", Text: "Barcelona Weather in January 2004.\n" +
				"Monday, January 31, 2004\nBarcelona Weather: Temperature 8º C around 46.4 F. Clear skies.\n" +
				"Tuesday, February 3, 2004\nBarcelona Weather: Temperature 6º C around 42.8 F."},
			{URL: "http://astro.example/sirius", Text: "Sirius is the brightest star in the night sky. " +
				"Sirius was recorded in 2004 by astronomers."},
		}
		if err := ix.AddBatch(docs); err != nil {
			panic(err)
		}
		sys, err := NewSystem(wordnet.Seed(), nil, ix, DefaultConfig())
		if err != nil {
			panic(err)
		}
		sys.TunePatterns(WeatherPatterns()...)
		fuzzSys = sys
	})
	return fuzzSys
}

// FuzzAnalyze drives Module 1 (and, when analysis succeeds, the full
// Answer and Harvest paths) with arbitrary question text: no input may
// panic, and every produced analysis must uphold its structural
// invariants (a matched pattern, retrieval terms without empties, dates
// within calendar bounds).
func FuzzAnalyze(f *testing.F) {
	for _, s := range []string{
		"What is the weather like in January of 2004 in El Prat?",
		"What is the temperature in Barcelona in February of 2004?",
		"Which country did Iraq invade in 1990?",
		"What is Sirius?",
		"How hot is it in Barcelona?",
		"How many terms did La Guardia serve?",
		"When did the invasion happen?",
		"Where is El Prat?",
		"Who is the mayor of New York?",
		"weather",
		"?",
		"",
		"what what what",
		"What is the weather like in January of 2004 in \xff\xfe?",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, question string) {
		s := fuzzSystemInit(t)
		a, err := s.analyze(question)
		if err != nil {
			return // rejected questions are fine; panics are not
		}
		if a.Pattern == nil {
			t.Fatal("analysis without a matched pattern")
		}
		for _, term := range a.Terms {
			if term == "" {
				t.Fatal("empty retrieval term")
			}
		}
		for _, d := range a.Dates {
			if d.Month < 0 || d.Month > 12 || d.Day < 0 || d.Day > 31 {
				t.Fatalf("implausible question date %+v", d)
			}
		}
		_ = a.ExpectedAnswerType()
		_ = a.MainSBStrings()

		// The full search pipeline (Modules 2-3) and the Step 5 harvest
		// must also hold up, including trace rendering.
		res, err := s.Answer(question)
		if err != nil {
			t.Fatalf("analyze succeeded but Answer failed: %v", err)
		}
		_ = res.Trace().Format()
		if _, _, err := s.Harvest(question); err != nil {
			t.Fatalf("analyze succeeded but Harvest failed: %v", err)
		}
	})
}
