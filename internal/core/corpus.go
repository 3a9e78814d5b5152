package core

import (
	"fmt"

	"dwqa/internal/ir"
	"dwqa/internal/webcorpus"
)

// scaledCityPool is the deterministic roster of synthetic city names the
// scaled corpus draws from: 200 single-token proper nouns, so each city
// contributes exactly one selective query term and falls back to the
// webcorpus default climate.
var scaledCityPool = func() []string {
	prefixes := []string{
		"Alder", "Birch", "Cedar", "Dun", "Elm", "Fern", "Glen", "Haver",
		"Iron", "Juniper", "Kings", "Lark", "Maple", "North", "Oak", "Pine",
		"Quarry", "Rowan", "Stone", "Thorn",
	}
	suffixes := []string{
		"ford", "vale", "burgh", "bridge", "field", "haven", "mere", "port",
		"stead", "wick",
	}
	out := make([]string, 0, len(prefixes)*len(suffixes))
	for _, s := range suffixes {
		for _, p := range prefixes {
			out = append(out, p+s)
		}
	}
	return out
}()

// ScaledCorpus is a generated web corpus indexed for passage retrieval at
// a target scale — the IR analogue of BuildScaledWarehouse's output. The
// page grid enumerates (year, city, month) so that any prefix of the
// enumeration keeps the month axis fully diverse (every city gets a whole
// year of pages before the next year starts) and the city axis as diverse
// as the page budget allows — the properties that make the cold-path
// query workload selective at every scale.
type ScaledCorpus struct {
	Index  *ir.Index
	Cities []string // cities with at least one page, in enumeration order
	Years  []int    // years with at least one page
	Pages  int
}

// scaledCorpusBaseYear anchors the scaled corpus timeline.
const scaledCorpusBaseYear = 1998

// ScaledPage returns page i of the scaled corpus's deterministic
// (year, city, month) page grid — the same enumeration order
// BuildScaledCorpus walks, exposed positionally so a streaming ingester
// (cmd/seeder) can generate any window of the corpus without holding
// the rest: resuming from a checkpoint is just restarting the counter.
func ScaledPage(i int, seed int64) webcorpus.Page {
	perYear := len(scaledCityPool) * 12
	year := scaledCorpusBaseYear + i/perYear
	city := scaledCityPool[(i%perYear)/12]
	month := i%12 + 1
	return webcorpus.ProsePage(webcorpus.WeatherSeries(city, year, month, seed))
}

// BuildScaledCorpus returns an indexed corpus of at least targetPassages
// passages, mirroring BuildScaledWarehouse: deterministic given the seed,
// grown incrementally until the target is met. Pages are Figure 4 prose
// weather pages (one city-month each) over synthetic cities, so corpus
// statistics — every passage mentions "weather"/"temperature", one in
// twelve mentions a given month, only a city's own pages mention the city
// — match the evaluation corpus shape at scale.
func BuildScaledCorpus(targetPassages int, seed int64) (*ScaledCorpus, error) {
	if targetPassages < 1 {
		targetPassages = 1
	}
	ix := ir.NewIndex()
	sc := &ScaledCorpus{Index: ix}
	cities := map[string]bool{}
	// 50 years × 200 cities × 12 months ≈ 1.8M passages: far above any
	// benchmark target, so hitting the cap means the generator is broken.
	for yi := 0; yi < 50; yi++ {
		year := scaledCorpusBaseYear + yi
		sc.Years = append(sc.Years, year)
		for _, city := range scaledCityPool {
			for month := 1; month <= 12; month++ {
				page := webcorpus.ProsePage(webcorpus.WeatherSeries(city, year, month, seed))
				err := ix.AddBatch([]ir.Document{{URL: page.URL, Text: webcorpus.ExtractText(page.HTML)}})
				if err != nil {
					return nil, fmt.Errorf("core: scaled corpus page %q: %w", page.URL, err)
				}
				sc.Pages++
				if !cities[city] {
					cities[city] = true
					sc.Cities = append(sc.Cities, city)
				}
				if ix.PassageCount() >= targetPassages {
					return sc, nil
				}
			}
		}
	}
	return nil, fmt.Errorf("core: could not reach %d passages", targetPassages)
}

// Queries returns the cold-path retrieval workload of the scaled corpus:
// one query per city, the main-SB terms of "What is the weather like in
// <City> in January?" after question analysis drops the focus noun — the
// selective [city, month] shape the QA side actually sends to IR-n (the
// ubiquitous focus term "weather" never reaches retrieval; see
// qa.Analysis.MainSBs).
func (sc *ScaledCorpus) Queries() [][]string {
	out := make([][]string, 0, len(sc.Cities))
	for _, city := range sc.Cities {
		// Derive the terms through the same analysis pipeline that
		// indexed the documents, so query lemmas match index lemmas.
		out = append(out, ir.QueryTerms(city+" in January"))
	}
	return out
}
