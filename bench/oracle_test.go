package main

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"
)

// goldReply builds the reply a correct server would send for r.
func goldReply(m *corpusModel, r request) []byte {
	cm := m.Months[r.CM]
	type row = map[string]any
	olap := func(rows []row) []byte {
		buf, _ := json.Marshal(map[string]any{"answer": nil, "olap": map[string]any{"rows": rows}})
		return buf
	}
	switch r.Kind {
	case kindDay, kindMonth:
		day := r.Day
		if day == 0 {
			day = 3
		}
		buf, _ := json.Marshal(map[string]any{
			"answer":     map[string]any{"value": cm.Highs[day-1], "has_value": true, "date": fmt.Sprintf("%04d-%02d-%02d", cm.Year, cm.Month, day)},
			"candidates": 30, "passages": 5,
		})
		return buf
	case kindScalar:
		return olap([]row{{"groups": []string{}, "value": aggregate(r.Agg, cm.Highs), "count": len(cm.Highs)}})
	case kindByDay:
		var rows []row
		for d, v := range cm.Highs {
			rows = append(rows, row{"groups": []string{fmt.Sprintf("%04d-%02d-%02d", cm.Year, cm.Month, d+1)}, "value": v, "count": 1})
		}
		return olap(rows)
	case kindByCity:
		var rows []row
		for _, o := range m.Months {
			if o.Year == cm.Year && o.Month == cm.Month {
				rows = append(rows, row{"groups": []string{o.City}, "value": aggregate(r.Agg, o.Highs), "count": len(o.Highs)})
			}
		}
		return olap(rows)
	case kindByMonth:
		var rows []row
		for _, o := range m.Months {
			if o.City == cm.City {
				rows = append(rows, row{"groups": []string{fmt.Sprintf("%04d-%02d", o.Year, o.Month)}, "value": aggregate(r.Agg, o.Highs), "count": len(o.Highs)})
			}
		}
		return olap(rows)
	}
	panic("no gold reply for this kind")
}

func TestOracle(t *testing.T) {
	m := testModel()
	cm := 17
	reqs := []request{
		m.dayQuestion(cm, 9), m.monthQuestion(cm),
		m.analyticQuestion(kindScalar, cm, 0), m.analyticQuestion(kindScalar, cm, 2), m.analyticQuestion(kindScalar, cm, 5),
		m.analyticQuestion(kindByDay, cm, 3), m.analyticQuestion(kindByCity, cm, 4), m.analyticQuestion(kindByMonth, cm, 1),
	}
	for _, r := range reqs {
		gold := goldReply(m, r)
		if c := m.check(r, 200, gold); c.verdict != verdictOK || c.inexact {
			t.Errorf("%q: the gold reply was judged %d (%s)", r.Question, c.verdict, c.why)
		}
		if c := m.check(r, 500, gold); c.verdict != verdictError {
			t.Errorf("%q: HTTP 500 was judged %d", r.Question, c.verdict)
		}
		if c := m.check(r, 200, []byte(`{"error":"boom"}`)); c.verdict != verdictError {
			t.Errorf("%q: an error reply was judged %d", r.Question, c.verdict)
		}
		// The same reply for a neighbouring city-month holds other values:
		// the next month of the city, or for a by-month question (whose
		// reply covers the whole city) the same month of the next city.
		other := r
		other.CM = cm + 1
		if r.Kind == kindByMonth {
			other.CM = cm + 12
		}
		if c := m.check(other, 200, gold); c.verdict == verdictOK && !c.inexact {
			t.Errorf("%q: the reply for another city-month was accepted", r.Question)
		}
	}

	day := m.dayQuestion(cm, 9)
	offByOne := m.dayQuestion(cm, 10)
	if c := m.check(day, 200, goldReply(m, offByOne)); c.verdict != verdictOK || !c.inexact {
		t.Errorf("a true pair for another day of the month: verdict %d, inexact %v; want answered but inexact", c.verdict, c.inexact)
	}
	if c := m.check(m.monthQuestion(cm), 200, goldReply(m, offByOne)); c.verdict != verdictOK || c.inexact {
		t.Errorf("a month-level question accepts any true pair of the month; got verdict %d, inexact %v", c.verdict, c.inexact)
	}
	if c := m.check(m.monthQuestion(cm+1), 200, goldReply(m, offByOne)); c.verdict != verdictOK || !c.inexact {
		t.Errorf("a true pair of the city for another month: verdict %d, inexact %v; want answered but inexact", c.verdict, c.inexact)
	}
	if c := m.check(m.dayQuestion(cm+12, 10), 200, goldReply(m, offByOne)); c.verdict != verdictWrong {
		t.Errorf("another city's value was judged %d, want wrong", c.verdict)
	}
	falsePair := []byte(`{"answer":{"value":-99,"has_value":true,"date":"1998-06-10"},"candidates":1,"passages":1}`)
	if c := m.check(day, 200, falsePair); c.verdict != verdictWrong {
		t.Errorf("a false pair was judged %d, want wrong", c.verdict)
	}
	noSuchDate := []byte(`{"answer":{"value":9,"has_value":true,"date":"2031-06-10"},"candidates":1,"passages":1}`)
	if c := m.check(day, 200, noSuchDate); c.verdict != verdictWrong {
		t.Errorf("a date outside the corpus was judged %d, want wrong", c.verdict)
	}

	feed := harvestQuestions()[0]
	for body, want := range map[string]verdict{
		`{"loaded":31,"skipped":0,"rejected":0}`:  verdictOK,
		`{"loaded":0,"skipped":31,"rejected":0}`:  verdictOK,
		`{"loaded":0,"skipped":0,"rejected":31}`:  verdictError,
		`{"loaded":31,"rejected":0,"error":"x"}`:  verdictError,
		`{"loaded":0,"skipped":0,"rejected":0}`:   verdictError,
		`{"loaded":30,"skipped":0,"rejected":1}`:  verdictError,
		`{"loaded":"many","skipped":0,"rejected"`: verdictError,
	} {
		if c := m.check(feed, 200, []byte(body)); c.verdict != want {
			t.Errorf("harvest reply %s judged %d, want %d", body, c.verdict, want)
		}
	}
	if c := m.check(request{Question: "q", Kind: kindSales}, 200, []byte(`{"olap":{"rows":[]}}`)); c.verdict != verdictError {
		t.Errorf("an empty sales result was judged %d", c.verdict)
	}
}

func TestPercentiles(t *testing.T) {
	var ns []int64
	for i := int64(100); i >= 1; i-- {
		ns = append(ns, i)
	}
	sorted := sortedCopy(ns)
	for p, want := range map[float64]int64{50: 50, 90: 90, 99: 99, 100: 100, 1: 1, 0.5: 1} {
		if got := percentile(sorted, p); got != want {
			t.Errorf("p%v of 1..100 = %d, want %d", p, got, want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %d", got)
	}
	if got := percentile([]int64{7}, 99); got != 7 {
		t.Errorf("p99 of one sample = %d", got)
	}
	// The tail is p95 once ten samples lie beyond it, p90 before.
	if got := tailLatency(sorted); got != 90 {
		t.Errorf("tail of 100 samples = %d, want their p90", got)
	}
	if got := tailLatency(sortedCopy(append(sorted, sorted...))); got != 95 {
		t.Errorf("tail of 200 samples = %d, want their p95", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v", got)
	}
	if got := median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("median = %v", got)
	}
}

func TestRecorder(t *testing.T) {
	m := testModel()
	day := m.dayQuestion(3, 4)
	a, b := &recorder{}, &recorder{}
	a.add(day, checked{candidates: 30, passages: 5}, 0, 2*time.Millisecond)
	a.add(day, checked{inexact: true}, 0, 9*time.Millisecond) // answered, late
	b.add(day, checked{verdict: verdictWrong, why: "w"}, 0, time.Millisecond)
	b.add(m.analyticQuestion(kindScalar, 3, 0), checked{resultRows: 1, scannedRows: 31}, 0, time.Millisecond)
	b.add(harvestQuestions()[0], checked{loaded: 31}, 0, 4*time.Millisecond)
	b.add(harvestQuestions()[1], checked{loaded: 0}, 0, 4*time.Millisecond)
	a.merge(b)
	if a.attempted != 6 || a.failed() != 1 || a.byVerdict[verdictOK] != 5 {
		t.Errorf("attempted %d, failed %d, ok %d", a.attempted, a.failed(), a.byVerdict[verdictOK])
	}
	if len(a.askNs) != 4 || len(a.askOK) != 4 || len(a.askEnd) != 4 || len(a.feedNs) != 2 {
		t.Errorf("asks %d, feeds %d", len(a.askNs), len(a.feedNs))
	}
	if a.inexact != 1 || a.factoidAsks != 2 || a.analyticAsks != 1 || a.scanned != 31 {
		t.Errorf("inexact %d factoid %d analytic %d scanned %d", a.inexact, a.factoidAsks, a.analyticAsks, a.scanned)
	}
	if a.feedsOK != 2 || a.feedsLoading != 1 || a.rowsLoaded != 31 || a.firstWhy[verdictWrong] != "w" {
		t.Errorf("feeds %d loading %d rows %d why %q", a.feedsOK, a.feedsLoading, a.rowsLoaded, a.firstWhy[verdictWrong])
	}
}
