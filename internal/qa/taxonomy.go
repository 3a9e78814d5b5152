// Package qa implements the AliQAn question answering system of the
// paper's evaluation: a two-phase architecture (indexation via the nlp,
// sbparser and ir substrates — AliQAn's word-sense disambiguation step is
// not reproduced; search via three sequential modules: question
// analysis, selection of relevant passages, extraction of the answer),
// with the 20-category answer-type taxonomy built on WordNet base types
// and EuroWordNet top concepts, syntactic-semantic question patterns,
// and the Step 4 tuning hooks that the integration model uses to teach
// it new query types.
package qa

import (
	"dwqa/internal/wordnet"
)

// Category is an expected answer type. The inventory is the paper's:
// "AliQAn's taxonomy consists of the following categories: person,
// profession, group, object, place city, place country, place capital,
// place, abbreviation, event, numerical economic, numerical age,
// numerical measure, numerical period, numerical percentage, numerical
// quantity, temporal year, temporal month, temporal date and definition."
type Category string

// The 20 answer-type categories.
const (
	CatPerson       Category = "person"
	CatProfession   Category = "profession"
	CatGroup        Category = "group"
	CatObject       Category = "object"
	CatPlaceCity    Category = "place city"
	CatPlaceCountry Category = "place country"
	CatPlaceCapital Category = "place capital"
	CatPlace        Category = "place"
	CatAbbreviation Category = "abbreviation"
	CatEvent        Category = "event"
	CatNumEconomic  Category = "numerical economic"
	CatNumAge       Category = "numerical age"
	CatNumMeasure   Category = "numerical measure"
	CatNumPeriod    Category = "numerical period"
	CatNumPercent   Category = "numerical percentage"
	CatNumQuantity  Category = "numerical quantity"
	CatTempYear     Category = "temporal year"
	CatTempMonth    Category = "temporal month"
	CatTempDate     Category = "temporal date"
	CatDefinition   Category = "definition"
)

// CatAnalytic is the integration's own addition to the paper's taxonomy:
// questions that aggregate warehouse measures ("average temperature in
// Barcelona by month") and are answered by the compiled OLAP engine
// rather than the three factoid modules. Question analysis never assigns
// it from text alone — the nl2olap translator classifies a question as
// analytic before the factoid pipeline runs — so it is deliberately not
// part of AllCategories; it labels analytic results in traces and the
// serving API.
const CatAnalytic Category = "analytic"

// AllCategories lists the taxonomy in the paper's order.
var AllCategories = []Category{
	CatPerson, CatProfession, CatGroup, CatObject, CatPlaceCity,
	CatPlaceCountry, CatPlaceCapital, CatPlace, CatAbbreviation, CatEvent,
	CatNumEconomic, CatNumAge, CatNumMeasure, CatNumPeriod, CatNumPercent,
	CatNumQuantity, CatTempYear, CatTempMonth, CatTempDate, CatDefinition,
}

// classifierRule maps a subsuming lemma to a category; rules are ordered
// most specific first, mirroring the taxonomy's structure over WordNet.
type classifierRule struct {
	lemma string
	cat   Category
}

var classifierRules = []classifierRule{
	{"capital", CatPlaceCapital},
	{"city", CatPlaceCity},
	{"country", CatPlaceCountry},
	{"location", CatPlace},
	{"occupation", CatProfession},
	{"person", CatPerson},
	{"group", CatGroup},
	{"abbreviation", CatAbbreviation},
	{"price", CatNumEconomic},
	{"money", CatNumEconomic},
	{"age", CatNumAge},
	{"percentage", CatNumPercent},
	{"temperature", CatNumMeasure},
	{"measure", CatNumMeasure},
	{"year", CatTempYear},
	{"month", CatTempMonth},
	{"date", CatTempDate},
	{"time period", CatNumPeriod},
	{"number", CatNumQuantity},
	{"event", CatEvent},
}

// ClassifyFocus maps the head lemma of a question's focus noun to a
// taxonomy category using WordNet subsumption — the paper: "the answer
// type is classified into a taxonomy based on WordNet Based-Types and
// EuroWordNet Top-Concepts". Unmappable focuses default to object.
func ClassifyFocus(wn *wordnet.WordNet, focusLemma string) Category {
	if focusLemma == "" {
		return CatObject
	}
	for _, r := range classifierRules {
		if focusLemma == r.lemma {
			return r.cat
		}
	}
	for _, r := range classifierRules {
		if wn.LemmaIsA(focusLemma, wordnet.Noun, r.lemma) {
			return r.cat
		}
	}
	return CatObject
}

// IsNumerical reports whether the category expects a number in the answer.
func (c Category) IsNumerical() bool {
	switch c {
	case CatNumEconomic, CatNumAge, CatNumMeasure, CatNumPeriod,
		CatNumPercent, CatNumQuantity:
		return true
	}
	return false
}

// IsTemporal reports whether the category expects a date or time.
func (c Category) IsTemporal() bool {
	switch c {
	case CatTempYear, CatTempMonth, CatTempDate:
		return true
	}
	return false
}

// IsPlace reports whether the category expects a location.
func (c Category) IsPlace() bool {
	switch c {
	case CatPlace, CatPlaceCity, CatPlaceCountry, CatPlaceCapital:
		return true
	}
	return false
}

// placeConstraint returns the WordNet lemma a place answer must be
// subsumed by.
func (c Category) placeConstraint() string {
	switch c {
	case CatPlaceCity:
		return "city"
	case CatPlaceCountry:
		return "country"
	case CatPlaceCapital:
		return "capital"
	default:
		return "location"
	}
}
