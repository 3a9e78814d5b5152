package nl2olap_test

import (
	"errors"
	"testing"

	"dwqa/internal/nl2olap"
)

// FuzzTranslate drives the NL→OLAP translator with arbitrary question
// text. The contract under fuzzing:
//
//   - no input may panic;
//   - every non-error translation passes the warehouse's own query
//     validation and executes — the translator never emits a plan
//     Execute would reject;
//   - translation is deterministic: the same input always compiles to
//     the same plan;
//   - rejected questions are classified: either factoid (ErrFactoid) or
//     a descriptive analytic error, never both;
//   - the resolver grounds like the per-level probe reference: the same
//     plan, or the same error.
func FuzzTranslate(f *testing.F) {
	for _, s := range []string{
		"What is the average temperature in Barcelona by month?",
		"Total last-minute revenue per destination city in January",
		"How many tickets were sold to Barcelona in January of 2004?",
		"What is the maximum temperature in El Prat in February of 2004?",
		"Average price by destination country and month",
		"How many sales from Madrid to New York in 2004?",
		"Number of flights per departure airport",
		"Average fare for each customer segment",
		"count of weather observations by city",
		"Total revenue",
		"average temperature in Gotham by month",
		"average sales by month",
		"What is the weather like in January of 2004 in El Prat?",
		"Who is the mayor of New York?",
		"how many",
		"total",
		"by",
		"per per per",
		"average temperature by",
		"Total revenue in January of 2004 in February of 2005",
		"",
		"?",
		"average temperature in \xff\xfe by month",
		"count of sales by city and and month",
		"AVERAGE TEMPERATURE IN BARCELONA BY MONTH",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, question string) {
		tr, wh := fixture(t)
		res, err := tr.Translate(question)
		ref, refErr := tr.TranslateReference(question)
		if d := sameOutcome(res, err, ref, refErr); d != "" {
			t.Fatalf("translation of %q: %s", question, d)
		}
		if err != nil {
			if res != nil {
				t.Fatal("error with a non-nil translation")
			}
			return // rejections are fine; panics and invalid plans are not
		}
		if err := wh.Validate(res.Query); err != nil {
			t.Fatalf("translation of %q failed warehouse validation: %v\nplan: %s",
				question, err, res.PlanString())
		}
		if _, err := wh.Execute(res.Query); err != nil {
			t.Fatalf("translation of %q failed to execute: %v\nplan: %s",
				question, err, res.PlanString())
		}
		again, err := tr.Translate(question)
		if err != nil {
			t.Fatalf("second translation of %q failed: %v", question, err)
		}
		if again.PlanString() != res.PlanString() {
			t.Fatalf("translation of %q is nondeterministic:\n  %s\n  %s",
				question, res.PlanString(), again.PlanString())
		}
		if errors.Is(err, nl2olap.ErrFactoid) {
			t.Fatal("successful translation classified factoid")
		}
	})
}
