package main

import (
	"encoding/json"
	"fmt"
	"math"
)

// askResponse is the part of the server's /ask reply the oracle reads.
type askResponse struct {
	Answer *struct {
		Value    float64 `json:"value"`
		HasValue bool    `json:"has_value"`
		Date     string  `json:"date"`
	} `json:"answer"`
	OLAP *struct {
		Rows []olapRow `json:"rows"`
	} `json:"olap"`
	Candidates int    `json:"candidates"`
	Passages   int    `json:"passages"`
	Error      string `json:"error"`
}

type olapRow struct {
	Groups []string `json:"groups"`
	Value  float64  `json:"value"`
	Count  int      `json:"count"`
}

// harvestResponse is the part of the server's /harvest reply the oracle
// reads.
type harvestResponse struct {
	Loaded   int    `json:"loaded"`
	Skipped  int    `json:"skipped"`
	Rejected int    `json:"rejected"`
	Error    string `json:"error"`
}

// verdict classifies one reply. Everything but verdictOK is a failed
// operation; the two failure classes are reported apart because a
// malformed reply is the server's edge failing and a wrong value is the
// QA or OLAP layer failing.
type verdict uint8

const (
	verdictOK    verdict = iota
	verdictWrong         // well-formed, but not the gold answer
	verdictError         // transport, status, shape or error field
)

// checked is what one reply contributes to the run's counters.
type checked struct {
	verdict verdict
	why     string // first failure, for the report
	// inexact marks a factoid reply that states a true (date, value)
	// pair of the asked city, but not for the day or month asked. At
	// the seed commit about 3 % of day-level questions get another day
	// (the day's passage is not among the five retrieved) and questions
	// about May get another month ("May" is dropped from the query terms
	// as the modal verb). Such replies count as answered, and against
	// exact_answer_share; a reply that states a false pair is a failure.
	inexact bool
	// factoid replies
	candidates, passages int
	// analytic replies
	resultRows, scannedRows int
	// harvest replies
	loaded int
}

func bad(v verdict, format string, args ...any) checked {
	return checked{verdict: v, why: fmt.Sprintf(format, args...)}
}

func aggregate(agg string, vals []float64) float64 {
	out := vals[0]
	sum := 0.0
	for _, v := range vals {
		sum += v
		switch agg {
		case "min":
			out = math.Min(out, v)
		case "max":
			out = math.Max(out, v)
		}
	}
	if agg == "avg" {
		return sum / float64(len(vals))
	}
	return out
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// check judges one HTTP reply against the corpus gold truth.
func (m *corpusModel) check(r request, status int, body []byte) checked {
	if status != 200 {
		return bad(verdictError, "%q: HTTP %d: %.200s", r.Question, status, body)
	}
	if r.Kind == kindHarvest {
		var h harvestResponse
		if err := json.Unmarshal(body, &h); err != nil {
			return bad(verdictError, "%q: %v", r.Question, err)
		}
		// A feed may load nothing new: two airports of one city harvest
		// the same rows, and the second is deduplicated whole.
		if h.Error != "" || h.Loaded+h.Skipped <= 0 || h.Rejected != 0 {
			return bad(verdictError, "%q: harvest loaded %d, skipped %d, rejected %d, error %q", r.Question, h.Loaded, h.Skipped, h.Rejected, h.Error)
		}
		return checked{loaded: h.Loaded}
	}
	var a askResponse
	if err := json.Unmarshal(body, &a); err != nil {
		return bad(verdictError, "%q: %v", r.Question, err)
	}
	if a.Error != "" {
		return bad(verdictError, "%q: %s", r.Question, a.Error)
	}
	var out checked
	if r.Kind.factoid() {
		if a.Answer == nil || a.OLAP != nil {
			return bad(verdictError, "%q: no factoid answer", r.Question)
		}
		out.candidates, out.passages = a.Candidates, a.Passages
		asked := m.Months[r.CM]
		var year, month, day int
		_, err := fmt.Sscanf(a.Answer.Date, "%d-%d-%d", &year, &month, &day)
		gold, ok := m.lookup(asked.City, year, month)
		if err != nil || !ok || day < 1 || day > len(gold.Highs) {
			out.verdict, out.why = verdictWrong, fmt.Sprintf("%q: answered for date %q, which the corpus does not hold", r.Question, a.Answer.Date)
			return out
		}
		if !a.Answer.HasValue || a.Answer.Value != gold.Highs[day-1] {
			out.verdict, out.why = verdictWrong, fmt.Sprintf("%q: %v on %s, gold %v", r.Question, a.Answer.Value, a.Answer.Date, gold.Highs[day-1])
			return out
		}
		out.inexact = year != asked.Year || month != asked.Month || (r.Kind == kindDay && day != r.Day)
		return out
	}
	if a.OLAP == nil || a.Answer != nil {
		return bad(verdictError, "%q: no analytic answer", r.Question)
	}
	rows := a.OLAP.Rows
	out.resultRows = len(rows)
	for _, row := range rows {
		out.scannedRows += row.Count
	}
	if r.Kind == kindSales {
		if len(rows) == 0 {
			return bad(verdictError, "%q: empty result", r.Question)
		}
		return out
	}
	cm := m.Months[r.CM]
	want := 1
	switch r.Kind {
	case kindByDay:
		want = len(cm.Highs)
	case kindByCity:
		want = m.citiesIn[yearMonth{cm.Year, cm.Month}]
	case kindByMonth:
		want = m.monthsOfCity[cm.City]
	}
	if len(rows) != want {
		return bad(verdictError, "%q: %d rows, want %d", r.Question, len(rows), want)
	}
	for _, row := range rows {
		if groups := len(row.Groups); (r.Kind == kindScalar) != (groups == 0) || groups > 1 {
			return bad(verdictError, "%q: row groups %v", r.Question, row.Groups)
		}
		gold, ok := cm, true
		vals := cm.Highs
		switch r.Kind {
		case kindByDay:
			var year, month, day int
			if _, err := fmt.Sscanf(row.Groups[0], "%d-%d-%d", &year, &month, &day); err != nil ||
				year != cm.Year || month != cm.Month || day < 1 || day > len(cm.Highs) {
				return bad(verdictError, "%q: row for %v", r.Question, row.Groups)
			}
			vals = cm.Highs[day-1 : day]
		case kindByCity:
			gold, ok = m.lookup(row.Groups[0], cm.Year, cm.Month)
			vals = gold.Highs
		case kindByMonth:
			var year, month int
			if _, err := fmt.Sscanf(row.Groups[0], "%d-%d", &year, &month); err != nil {
				return bad(verdictError, "%q: row for %v", r.Question, row.Groups)
			}
			gold, ok = m.lookup(cm.City, year, month)
			vals = gold.Highs
		}
		if !ok {
			return bad(verdictError, "%q: row for %v, which the corpus does not hold", r.Question, row.Groups)
		}
		if want := aggregate(r.Agg, vals); row.Count != len(vals) || !near(row.Value, want) {
			out.verdict = verdictWrong
			out.why = fmt.Sprintf("%q: row %v = %v over %d rows, gold %v over %d", r.Question, row.Groups, row.Value, row.Count, want, len(vals))
			return out
		}
	}
	return out
}
