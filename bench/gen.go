package main

import (
	"fmt"
	"math/rand"
	"time"

	"dwqa/internal/core"
)

// corpusSeed is the seeder's -seed: it fixes the generated corpus and
// therefore the gold truth every answer is checked against. The
// workload seed (-seed) only chooses which questions are asked.
const corpusSeed = 42

// kind is the shape of one question, which decides how its answer is
// checked (oracle.go).
type kind uint8

const (
	kindDay     kind = iota // factoid: the temperature in a city on one day
	kindMonth               // factoid: the weather in a city in one month
	kindScalar              // analytic: one aggregate over a city-month
	kindByDay               // analytic: one row per day of a city-month
	kindByCity              // analytic: one row per city, one month
	kindByMonth             // analytic: one row per month, one city
	kindSales               // analytic over LastMinuteSales: shape check only
	kindHarvest             // POST /harvest feed
)

func (k kind) factoid() bool { return k == kindDay || k == kindMonth }

// request is one generated operation with what the oracle needs to
// check its answer.
type request struct {
	Question string
	Kind     kind
	CM       int    // city-month index into corpusModel.Months (any month of the city for kindByMonth, any city of the month for kindByCity)
	Day      int    // kindDay only
	Agg      string // "avg", "min" or "max" for the analytic Weather kinds
}

// cityMonth is the gold truth of one corpus page: the daily highs of
// one city in one month.
type cityMonth struct {
	City        string
	Year, Month int
	Highs       []float64 // Highs[d-1] is day d
}

type yearMonth struct{ Year, Month int }

// corpusModel is what the harness knows about a seeded corpus without
// looking inside it: the page grid the seeder ingested, taken from the
// same core.ScaledPage enumeration the seeder streams.
type corpusModel struct {
	Months       []cityMonth
	index        map[string]int    // "City/2000-03" → Months index
	citiesIn     map[yearMonth]int // cities with a page for the month
	monthsOfCity map[string]int    // months a city has a page for
}

func cmKey(city string, year, month int) string {
	return fmt.Sprintf("%s/%04d-%02d", city, year, month)
}

func newCorpusModel(pages int) *corpusModel {
	m := &corpusModel{
		index:        map[string]int{},
		citiesIn:     map[yearMonth]int{},
		monthsOfCity: map[string]int{},
	}
	for i := 0; i < pages; i++ {
		gold := core.ScaledPage(i, corpusSeed).Gold
		cm := cityMonth{City: gold[0].City, Year: gold[0].Year, Month: gold[0].Month}
		for _, g := range gold {
			cm.Highs = append(cm.Highs, g.TempC)
		}
		m.index[cmKey(cm.City, cm.Year, cm.Month)] = len(m.Months)
		m.Months = append(m.Months, cm)
		m.citiesIn[yearMonth{cm.Year, cm.Month}]++
		m.monthsOfCity[cm.City]++
	}
	return m
}

func (m *corpusModel) lookup(city string, year, month int) (cityMonth, bool) {
	i, ok := m.index[cmKey(city, year, month)]
	if !ok {
		return cityMonth{}, false
	}
	return m.Months[i], true
}

// aggWords are the surface forms of the three aggregations; two per
// aggregation doubles the number of distinct cold questions.
var aggWords = []struct{ word, agg string }{
	{"Average", "avg"}, {"Mean", "avg"},
	{"Minimum", "min"}, {"Lowest", "min"},
	{"Maximum", "max"}, {"Highest", "max"},
}

func monthName(m int) string { return time.Month(m).String() }

func (m *corpusModel) dayQuestion(cm, day int) request {
	c := m.Months[cm]
	return request{
		Question: fmt.Sprintf("What is the temperature in %s on %s %d, %d?", c.City, monthName(c.Month), day, c.Year),
		Kind:     kindDay, CM: cm, Day: day,
	}
}

func (m *corpusModel) monthQuestion(cm int) request {
	c := m.Months[cm]
	return request{
		Question: fmt.Sprintf("What is the weather like in %s in %s of %d?", c.City, monthName(c.Month), c.Year),
		Kind:     kindMonth, CM: cm,
	}
}

func (m *corpusModel) analyticQuestion(k kind, cm, word int) request {
	c, w := m.Months[cm], aggWords[word]
	r := request{Kind: k, CM: cm, Agg: w.agg}
	switch k {
	case kindScalar:
		r.Question = fmt.Sprintf("%s temperature in %s in %s of %d", w.word, c.City, monthName(c.Month), c.Year)
	case kindByDay:
		r.Question = fmt.Sprintf("%s temperature in %s in %s of %d by day", w.word, c.City, monthName(c.Month), c.Year)
	case kindByCity:
		r.Question = fmt.Sprintf("%s temperature by city in %s of %d", w.word, monthName(c.Month), c.Year)
	case kindByMonth:
		r.Question = fmt.Sprintf("%s temperature in %s by month", w.word, c.City)
	}
	return r
}

// factoidCold returns up to n unique factoid questions, sampled without
// replacement: 70 % day-level, 30 % month-level.
func (m *corpusModel) factoidCold(seed int64, n int) []request {
	rng := rand.New(rand.NewSource(seed))
	type cmDay struct{ cm, day int }
	var days []cmDay
	for cm, c := range m.Months {
		for d := range c.Highs {
			days = append(days, cmDay{cm, d + 1})
		}
	}
	rng.Shuffle(len(days), func(i, j int) { days[i], days[j] = days[j], days[i] })
	months := rng.Perm(len(m.Months))
	out := make([]request, 0, n)
	for len(out) < n && (len(days) > 0 || len(months) > 0) {
		if len(days) > 0 && (len(months) == 0 || rng.Float64() < 0.7) {
			out = append(out, m.dayQuestion(days[0].cm, days[0].day))
			days = days[1:]
		} else {
			out = append(out, m.monthQuestion(months[0]))
			months = months[1:]
		}
	}
	return out
}

// analyticCold returns up to n analytic questions: 85 % narrow (scalar
// or by-day over one city-month, unique, sampled without replacement)
// and 15 % wide group-bys (by city in a month, by month in a city),
// which come from a small set and so repeat.
func (m *corpusModel) analyticCold(seed int64, n int) []request {
	rng := rand.New(rand.NewSource(seed))
	type narrow struct {
		k        kind
		cm, word int
	}
	var pool []narrow
	for cm := range m.Months {
		for w := range aggWords {
			pool = append(pool, narrow{kindScalar, cm, w}, narrow{kindByDay, cm, w})
		}
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	out := make([]request, 0, n)
	for len(out) < n && len(pool) > 0 {
		if rng.Float64() < 0.85 {
			out = append(out, m.analyticQuestion(pool[0].k, pool[0].cm, pool[0].word))
			pool = pool[1:]
			continue
		}
		k := kindByCity
		if rng.Intn(2) == 0 {
			k = kindByMonth
		}
		out = append(out, m.analyticQuestion(k, rng.Intn(len(m.Months)), rng.Intn(len(aggWords))))
	}
	return out
}

// Hot-set mix: the questions of hot_mixed_feed fit the server's
// 1 024-entry answer cache.
const (
	hotFactoid  = 384
	hotWeather  = 96
	hotSales    = 32
	hotSetSize  = hotFactoid + hotWeather + hotSales
	hotZipfS    = 1.1
	hotSequence = 1 << 19 // draws generated per run; the load loop wraps if it ever gets through them
)

// salesQuestions are analytic questions over the LastMinuteSales fact
// of the scenario warehouse, which feeds never touch.
func salesQuestions() []string {
	cfg := core.DefaultConfig()
	cities := map[string]bool{}
	var out []string
	for _, a := range core.ScenarioAirports {
		if cities[a.City] {
			continue
		}
		cities[a.City] = true
		for _, month := range cfg.Months {
			out = append(out,
				fmt.Sprintf("How many tickets were sold to %s in %s of %d?", a.City, monthName(month), cfg.Year),
				fmt.Sprintf("Total revenue to %s in %s of %d", a.City, monthName(month), cfg.Year))
		}
	}
	return out
}

// hotSet returns the fixed hot set of hot_mixed_feed: 384 factoid, 96
// Weather-fact analytic and 32 LastMinuteSales analytic questions, all
// distinct, shuffled so that the Zipf ranks mix the three.
func (m *corpusModel) hotSet(seed int64) []request {
	rng := rand.New(rand.NewSource(seed))
	set := m.factoidCold(rng.Int63(), hotFactoid)
	seen := map[string]bool{}
	analytic := m.analyticCold(rng.Int63(), 4*hotWeather)
	for _, r := range analytic {
		if len(set) == hotFactoid+hotWeather {
			break
		}
		if !seen[r.Question] {
			seen[r.Question] = true
			set = append(set, r)
		}
	}
	sales := salesQuestions()
	rng.Shuffle(len(sales), func(i, j int) { sales[i], sales[j] = sales[j], sales[i] })
	for _, q := range sales[:hotSales] {
		set = append(set, request{Question: q, Kind: kindSales})
	}
	rng.Shuffle(len(set), func(i, j int) { set[i], set[j] = set[j], set[i] })
	return set
}

// hotDraws returns the Zipf(s = 1.1) sequence of hot-set ranks one run
// sends.
func hotDraws(seed int64, setSize, n int) []uint16 {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, hotZipfS, 1, uint64(setSize-1))
	out := make([]uint16, n)
	for i := range out {
		out[i] = uint16(zipf.Uint64())
	}
	return out
}

// harvestQuestions are the scenario's Step 5 feed questions: one per
// (airport, covered month). Only scenario airports ground a harvest
// location, so these are all the feeds a run can commit.
func harvestQuestions() []request {
	cfg := core.DefaultConfig()
	var out []request
	for _, a := range core.ScenarioAirports {
		for _, month := range cfg.Months {
			out = append(out, request{
				Question: fmt.Sprintf("What is the weather like in %s of %d in %s?", monthName(month), cfg.Year, a.Name),
				Kind:     kindHarvest,
			})
		}
	}
	return out
}
