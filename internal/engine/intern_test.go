package engine_test

import (
	"fmt"
	"net/http"
	"strconv"
	"testing"

	"dwqa/internal/nlp"
)

// TestAskStormLeavesInternPoolUnchanged pins the query side of the
// intern-pool rule (DESIGN.md §11): questions are user input, so
// answering them only reads the process-wide nlp pool. A storm of
// questions built from never-seen tokens — factoid, analytic and
// unanalysable shapes, with inflections that reach every derived-lemma
// branch — goes through POST /ask, and the pool must not grow by one
// entry.
func TestAskStormLeavesInternPoolUnchanged(t *testing.T) {
	srv, _ := newServer(t)
	ask := func(q string) {
		t.Helper()
		resp, body := postJSON(t, srv.URL+"/ask", `{"question": `+strconv.Quote(q)+`}`)
		if resp.StatusCode >= http.StatusInternalServerError {
			t.Fatalf("ask %q: status %d: %s", q, resp.StatusCode, body)
		}
	}
	// Warm-up: one ask of each shape over the corpus vocabulary, so
	// whatever document text answering analyses is already pooled.
	ask("What is the weather like in January of 2004 in El Prat?")
	ask("What was the average temperature in Barcelona in January of 2004?")

	before := nlp.InternedCount()
	for i := 0; i < 50; i++ {
		for _, q := range []string{
			fmt.Sprintf("What is the weather like in January of 2004 in Zq%dvx?", i),
			fmt.Sprintf("What is the weather like in Zq%dvxuary of 2004 in El Prat?", i),
			fmt.Sprintf("What was the average temperature in Zq%dvx in January of %d?", i, 3000+i),
			fmt.Sprintf("Zq%dvxies zq%dvxed the zq%dvxing %dzqth zq%dvxes.", i, i, i, 100+i, i),
		} {
			ask(q)
		}
	}
	if after := nlp.InternedCount(); after != before {
		t.Fatalf("intern pool grew from %d to %d entries under a unique-token question storm", before, after)
	}
}
