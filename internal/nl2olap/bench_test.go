package nl2olap_test

import (
	"testing"
)

// coldShapes are the four question shapes of bench/'s analytic_cold
// workload (scalar, by day, by city, by month), over a scenario city.
var coldShapes = []struct{ name, question string }{
	{"scalar", "Average temperature in Barcelona in February of 2004"},
	{"by_day", "Maximum temperature in Barcelona in February of 2004 by day"},
	{"by_city", "Minimum temperature by city in February of 2004"},
	{"by_month", "Average temperature in Barcelona by month"},
}

// translateAllocCeiling pins what Translate allocates per shape on a
// warm resolver. A grounding change that starts probing the warehouse,
// sorting member lists or formatting per lookup again shows here.
var translateAllocCeiling = map[string]float64{
	"scalar":   47,
	"by_day":   54,
	"by_city":  40,
	"by_month": 36,
}

func TestTranslateAllocs(t *testing.T) {
	tr, _ := fixture(t)
	for _, s := range coldShapes {
		if _, err := tr.Translate(s.question); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := tr.Translate(s.question); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocs", s.name, allocs)
		if allocs > translateAllocCeiling[s.name] {
			t.Errorf("%s: Translate allocated %.0f times, ceiling %.0f", s.name, allocs, translateAllocCeiling[s.name])
		}
	}
}

// BenchmarkTranslate compiles each analytic_cold shape on a warm
// resolver.
func BenchmarkTranslate(b *testing.B) {
	tr, _ := fixture(b)
	for _, s := range coldShapes {
		b.Run(s.name, func(b *testing.B) {
			if _, err := tr.Translate(s.question); err != nil { // builds the resolver
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tr.Translate(s.question); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
