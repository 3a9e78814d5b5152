package nl2olap_test

import (
	"bufio"
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"

	"dwqa/internal/core"
	"dwqa/internal/dw"
	"dwqa/internal/nl2olap"
)

// sameOutcome reports how two translations of one question differ, or
// "" when the resolver and the probe reference agree: byte-equal plans
// and dynamic filters, or the same error with the same ErrFactoid class.
func sameOutcome(got *nl2olap.Translation, gotErr error, want *nl2olap.Translation, wantErr error) string {
	switch {
	case (gotErr == nil) != (wantErr == nil):
		return "one side failed: resolver " + errString(gotErr) + ", reference " + errString(wantErr)
	case gotErr != nil:
		if errors.Is(gotErr, nl2olap.ErrFactoid) != errors.Is(wantErr, nl2olap.ErrFactoid) || gotErr.Error() != wantErr.Error() {
			return "errors differ: resolver " + gotErr.Error() + ", reference " + wantErr.Error()
		}
	case got.PlanString() != want.PlanString():
		return "plans differ:\n  resolver  " + got.PlanString() + "\n  reference " + want.PlanString()
	case !reflect.DeepEqual(got.DynamicFilters, want.DynamicFilters):
		return "dynamic filters differ"
	}
	return ""
}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// goldenQuestions reads the question of every entry of the root
// package's analytic golden corpus.
func goldenQuestions(t *testing.T) []string {
	t.Helper()
	f, err := os.Open("../../testdata/nl2olap.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if q, ok := strings.CutPrefix(sc.Text(), "Q: "); ok {
			out = append(out, q)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(out) < 25 {
		t.Fatalf("golden corpus yielded %d questions", len(out))
	}
	return out
}

// casings renders a member name as written, lower-cased, upper-cased
// and title-cased.
func casings(name string) []string {
	title := strings.Fields(strings.ToLower(name))
	for i, w := range title {
		title[i] = strings.ToUpper(w[:1]) + w[1:]
	}
	return []string{name, strings.ToLower(name), strings.ToUpper(name), strings.Join(title, " ")}
}

// TestResolverMatchesProbeReference is the resolver's equivalence
// oracle: every member of every level (in four casings, in a Weather, a
// departure and a destination question), every ontology instance name
// and alias, the golden corpus and the scenario's analytic questions
// compile to byte-equal plans — or fail alike — through the resolver
// and through the per-level probes it replaced, with the ontology and
// without it (where every member must ground on its own).
func TestResolverMatchesProbeReference(t *testing.T) {
	tr, wh := fixture(t)
	bare, err := core.NewScenarioTranslator(wh, nil)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, d := range wh.Schema().Dimensions {
		for _, l := range d.Levels {
			for _, m := range wh.Members(d.Name, l.Name) {
				names = append(names, casings(m)...)
			}
		}
	}
	onto := fixtureOntology(t)
	for _, c := range onto.Concepts() {
		for _, inst := range onto.Concept(c).Instances {
			names = append(names, inst.Name)
			names = append(names, inst.Aliases...)
		}
	}
	questions := append(goldenQuestions(t), core.AnalyticQuestions()...)
	for _, name := range names {
		questions = append(questions,
			"average temperature in "+name+" by month",
			"total revenue from "+name+" in 2004",
			"how many tickets to "+name)
	}
	diverged := 0
	for _, q := range questions {
		for _, tr := range []*nl2olap.Translator{tr, bare} {
			got, gotErr := tr.Translate(q)
			want, wantErr := tr.TranslateReference(q)
			if d := sameOutcome(got, gotErr, want, wantErr); d != "" {
				t.Errorf("%q: %s", q, d)
				if diverged++; diverged > 10 {
					t.Fatal("too many divergences")
				}
			}
		}
	}
	t.Logf("%d questions over %d names agree", len(questions), len(names))
}

// TestResolverPrefersFinestLevel: a city-state is a member of two levels
// of one dimension, and grounds at the finer one, through the resolver
// as through the probes. The scenario holds no such name, so the test
// adds one to a private warehouse.
func TestResolverPrefersFinestLevel(t *testing.T) {
	p, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Step1DeriveOntology(); err != nil {
		t.Fatal(err)
	}
	var specs []dw.MemberSpec
	for _, dim := range []string{"Airport", "City"} {
		specs = append(specs,
			dw.MemberSpec{Dim: dim, Level: "Country", Name: "Singapore"},
			dw.MemberSpec{Dim: dim, Level: "City", Name: "Singapore", Parent: "Singapore"})
	}
	if err := p.Warehouse.AddBatch(specs, "", nil); err != nil {
		t.Fatal(err)
	}
	tr, err := core.NewScenarioTranslator(p.Warehouse, p.Ontology)
	if err != nil {
		t.Fatal(err)
	}
	for q, want := range map[string]string{
		"average temperature in Singapore by month": "Weather avg(TempC) by Date/Month where City/City in {Singapore}",
		"total revenue to Singapore":                "LastMinuteSales sum(Price) where Destination/City in {Singapore}",
	} {
		got, err := tr.Translate(q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		if got.PlanString() != want {
			t.Errorf("%q: plan %s, want %s", q, got.PlanString(), want)
		}
		ref, refErr := tr.TranslateReference(q)
		if d := sameOutcome(got, err, ref, refErr); d != "" {
			t.Errorf("%q: %s", q, d)
		}
	}
}
