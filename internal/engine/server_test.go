package engine_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"dwqa/internal/engine"
	"dwqa/internal/qa"
)

// newServer builds a fed pipeline and its HTTP API.
func newServer(t *testing.T) (*httptest.Server, *engine.Engine) {
	t.Helper()
	p := newPipeline(t)
	if _, err := p.Step5FeedWarehouse(p.WeatherQuestions()); err != nil {
		t.Fatal(err)
	}
	eng, err := p.Engine()
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(engine.NewServer(eng))
	t.Cleanup(srv.Close)
	return srv, eng
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func TestServerHealthz(t *testing.T) {
	srv, _ := newServer(t)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var payload struct {
		Status     string `json:"status"`
		State      string `json:"state"`
		Workers    int    `json:"workers"`
		Passages   int    `json:"passages"`
		Generation uint64 `json:"generation"`
		Inflight   *int64 `json:"inflight"`
		Shed       *int64 `json:"shed_total"`
		Timeouts   *int64 `json:"timeout_total"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	if payload.Status != "ok" || payload.Workers <= 0 || payload.Passages == 0 {
		t.Errorf("healthz payload = %+v", payload)
	}
	if payload.Generation != 1 {
		t.Errorf("generation = %d, want 1 (one Step 5 feed)", payload.Generation)
	}
	if payload.State != "ready" {
		t.Errorf("state = %q, want ready", payload.State)
	}
	// The resilience counters are always present (not omitempty): an
	// operator must be able to tell "zero sheds" from "no gate".
	if payload.Inflight == nil || payload.Shed == nil || payload.Timeouts == nil {
		t.Errorf("missing resilience counters in %+v", payload)
	}
	if payload.Shed != nil && *payload.Shed != 0 {
		t.Errorf("shed_total = %d on an idle server", *payload.Shed)
	}
}

// TestServerSheds: a saturated engine answers 429 with a Retry-After
// hint, and /healthz counts the shed.
func TestServerSheds(t *testing.T) {
	p := newPipeline(t)
	eng, err := engine.New(engine.Config{MaxInflight: 1, CacheSize: -1},
		p.QA, nil, nil, p.Index)
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	eng.SetAnswerFnForTest(func(string) (*qa.Result, error) {
		started <- struct{}{}
		<-release
		return &qa.Result{}, nil
	})
	srv := httptest.NewServer(engine.NewServer(eng))
	t.Cleanup(srv.Close)

	errc := make(chan error, 1)
	go func() {
		resp, err := http.Post(srv.URL+"/ask", "application/json",
			strings.NewReader(`{"question": "occupier"}`))
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	<-started // slot held

	resp, body := postJSON(t, srv.URL+"/ask", `{"question": "shed me"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (%s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 must carry Retry-After")
	}
	close(release)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}

	hz, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hz.Body.Close()
	var st struct {
		Shed uint64 `json:"shed_total"`
	}
	if err := json.NewDecoder(hz.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Shed != 1 {
		t.Errorf("shed_total = %d, want 1", st.Shed)
	}
}

// TestServerRetryAfterScalesWithQueueDepth pins the 429 backoff hint to
// the load it is derived from: a shed against a bare saturated slot
// hints one ask-deadline, a shed behind a full queue hints one deadline
// per drain wave of the work ahead — the header must grow with queue
// depth, not sit on a constant.
func TestServerRetryAfterScalesWithQueueDepth(t *testing.T) {
	p := newPipeline(t)
	const askTimeout = 10 * time.Second // >> test runtime: no queued request expires mid-probe

	// shedHint saturates an engine (1 slot busy, `queueDepth` requests
	// waiting) and returns the Retry-After value of a shed request.
	shedHint := func(maxQueue, queueDepth, wantSecs int) int {
		t.Helper()
		eng, err := engine.New(engine.Config{MaxInflight: 1, MaxQueue: maxQueue, AskTimeout: askTimeout, CacheSize: -1},
			p.QA, nil, nil, p.Index)
		if err != nil {
			t.Fatal(err)
		}
		started := make(chan struct{}, 8)
		release := make(chan struct{})
		eng.SetAnswerFnForTest(func(string) (*qa.Result, error) {
			started <- struct{}{}
			<-release
			return &qa.Result{}, nil
		})
		srv := httptest.NewServer(engine.NewServer(eng))
		t.Cleanup(srv.Close)

		done := make(chan error, 1+queueDepth)
		post := func(q string) {
			resp, err := http.Post(srv.URL+"/ask", "application/json",
				strings.NewReader(`{"question": "`+q+`"}`))
			if err == nil {
				resp.Body.Close()
			}
			done <- err
		}
		go post("occupier")
		<-started // the one slot is held
		for i := 0; i < queueDepth; i++ {
			go post("queued")
		}
		// The queued posts race the probe; wait until the hint reflects
		// the full backlog before shedding against it.
		deadline := time.Now().Add(5 * time.Second)
		for eng.RetryAfterSeconds() != wantSecs {
			if time.Now().After(deadline) {
				t.Fatalf("hint never reached %ds (at %ds) — queue did not fill", wantSecs, eng.RetryAfterSeconds())
			}
			time.Sleep(time.Millisecond)
		}

		resp, body := postJSON(t, srv.URL+"/ask", `{"question": "shed me"}`)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("status = %d, want 429 (%s)", resp.StatusCode, body)
		}
		secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
		if err != nil {
			t.Fatalf("Retry-After %q is not an integer: %v", resp.Header.Get("Retry-After"), err)
		}
		close(release)
		for i := 0; i < 1+queueDepth; i++ {
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
		return secs
	}

	// One slot busy, no queue: the work ahead drains in one wave.
	shallow := shedHint(0, 0, int(askTimeout/time.Second))
	// One slot busy, three queued: four waves of one-slot drains ahead.
	deep := shedHint(3, 3, 4*int(askTimeout/time.Second))
	if shallow != int(askTimeout/time.Second) {
		t.Errorf("bare saturation hints %ds, want %ds (one ask deadline)", shallow, int(askTimeout/time.Second))
	}
	if deep != 4*shallow {
		t.Errorf("full queue hints %ds, want %ds — Retry-After must scale with queue depth", deep, 4*shallow)
	}
}

// TestServerDeadline504: a batch outrunning its deadline answers 504 and
// still carries the per-item results — finished answers plus expired
// slots marked with the deadline error.
func TestServerDeadline504(t *testing.T) {
	p := newPipeline(t)
	eng, err := engine.New(engine.Config{Workers: 1, AskTimeout: 40 * time.Millisecond, CacheSize: -1},
		p.QA, nil, nil, p.Index)
	if err != nil {
		t.Fatal(err)
	}
	eng.SetAnswerFnForTest(func(string) (*qa.Result, error) {
		time.Sleep(25 * time.Millisecond)
		return &qa.Result{}, nil
	})
	srv := httptest.NewServer(engine.NewServer(eng))
	t.Cleanup(srv.Close)

	resp, raw := postJSON(t, srv.URL+"/ask/batch",
		`{"questions": ["one?", "two?", "three?", "four?"]}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (%s)", resp.StatusCode, raw)
	}
	var payload struct {
		Results []struct {
			Error string `json:"error"`
		} `json:"results"`
	}
	if err := json.Unmarshal(raw, &payload); err != nil {
		t.Fatalf("%v in %s", err, raw)
	}
	if len(payload.Results) != 4 {
		t.Fatalf("%d results, want 4 (partial batch must keep its shape)", len(payload.Results))
	}
	var done, expired int
	for _, r := range payload.Results {
		if r.Error == "" {
			done++
		} else if strings.Contains(r.Error, "deadline") {
			expired++
		}
	}
	if done == 0 || expired == 0 {
		t.Errorf("done=%d expired=%d; want a partial batch with both", done, expired)
	}
}

// TestServerPanic500: a panicking question answers 500 on that request
// only; the server keeps serving.
func TestServerPanic500(t *testing.T) {
	p := newPipeline(t)
	eng, err := engine.New(engine.Config{}, p.QA, nil, nil, p.Index)
	if err != nil {
		t.Fatal(err)
	}
	real := p.QA.Answer
	eng.SetAnswerFnForTest(func(q string) (*qa.Result, error) {
		if strings.Contains(q, "BOOM") {
			panic("injected")
		}
		return real(q)
	})
	srv := httptest.NewServer(engine.NewServer(eng))
	t.Cleanup(srv.Close)

	resp, body := postJSON(t, srv.URL+"/ask", `{"question": "BOOM"}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500 (%s)", resp.StatusCode, body)
	}
	// The next request is unaffected.
	resp, body = postJSON(t, srv.URL+"/ask",
		`{"question": "What is the weather like in January of 2004 in El Prat?"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after panic = %d (%s)", resp.StatusCode, body)
	}
}

// TestServerDegraded503: a degraded engine refuses feeds with 503 and
// reports itself on /healthz, while /ask keeps answering 200.
func TestServerDegraded503(t *testing.T) {
	srv, eng := newServer(t)
	eng.EnterDegradedForTest("injected: WAL append failed")

	resp, body := postJSON(t, srv.URL+"/harvest", "")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("harvest while degraded = %d, want 503 (%s)", resp.StatusCode, body)
	}
	resp, body = postJSON(t, srv.URL+"/ask",
		`{"question": "What is the weather like in January of 2004 in El Prat?"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ask while degraded = %d, want 200 (%s)", resp.StatusCode, body)
	}

	hz, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hz.Body.Close()
	var st struct {
		Status string `json:"status"`
		State  string `json:"state"`
		Reason string `json:"degraded_reason"`
	}
	if err := json.NewDecoder(hz.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Status != "degraded" || st.State != "degraded" || st.Reason == "" {
		t.Errorf("healthz while degraded = %+v", st)
	}
}

// TestServerReadOnlyReplica403: a read replica refuses feeds with 403
// (a deliberate, healthy refusal — not 503, which would make a load
// balancer pull the replica) while /ask keeps answering 200.
func TestServerReadOnlyReplica403(t *testing.T) {
	p := newPipeline(t)
	eng, err := engine.New(engine.Config{}, p.QA, nil, nil, p.Index)
	if err != nil {
		t.Fatal(err)
	}
	eng.SetReadOnlyReplica()
	srv := httptest.NewServer(engine.NewServer(eng))
	t.Cleanup(srv.Close)

	resp, body := postJSON(t, srv.URL+"/harvest", "")
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("harvest on replica = %d, want 403 (%s)", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "read-only replica") {
		t.Errorf("replica refusal body = %q, want it to say read-only replica", body)
	}
	resp, body = postJSON(t, srv.URL+"/ask",
		`{"question": "What is the weather like in January of 2004 in El Prat?"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ask on replica = %d, want 200 (%s)", resp.StatusCode, body)
	}
}

// TestServerBodyLimits: an oversized body is 413, an oversized batch 422.
func TestServerBodyLimits(t *testing.T) {
	srv, _ := newServer(t)

	// >1 MiB of padding in an otherwise valid request.
	huge := `{"question": "` + strings.Repeat("x", 1<<20+64) + `"}`
	resp, _ := postJSON(t, srv.URL+"/ask", huge)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body = %d, want 413", resp.StatusCode)
	}

	// 10_001 tiny questions: fits the byte budget, breaks the count one.
	var sb strings.Builder
	sb.WriteString(`{"questions": [`)
	for i := 0; i < 10_001; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		sb.WriteString(`"q"`)
	}
	sb.WriteString(`]}`)
	resp, _ = postJSON(t, srv.URL+"/ask/batch", sb.String())
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("oversized batch = %d, want 422", resp.StatusCode)
	}
	resp, _ = postJSON(t, srv.URL+"/harvest", sb.String())
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("oversized harvest batch = %d, want 422", resp.StatusCode)
	}
}

func TestServerAsk(t *testing.T) {
	srv, _ := newServer(t)
	resp, body := postJSON(t, srv.URL+"/ask",
		`{"question": "What is the weather like in January of 2004 in El Prat?"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var payload struct {
		Answer *struct {
			Location string  `json:"location"`
			Unit     string  `json:"unit"`
			Value    float64 `json:"value"`
		} `json:"answer"`
		Candidates int `json:"candidates"`
	}
	if err := json.Unmarshal(body, &payload); err != nil {
		t.Fatalf("%v in %s", err, body)
	}
	if payload.Answer == nil || payload.Answer.Location != "Barcelona" || payload.Answer.Unit != "C" {
		t.Errorf("answer = %+v", payload.Answer)
	}
	if payload.Candidates == 0 {
		t.Error("no candidates reported")
	}
}

func TestServerAskBadRequests(t *testing.T) {
	srv, _ := newServer(t)
	for _, tc := range []struct {
		name, body string
		want       int
	}{
		{"missing question", `{}`, http.StatusBadRequest},
		{"malformed json", `{"question": `, http.StatusBadRequest},
		{"unknown field", `{"quesiton": "typo"}`, http.StatusBadRequest},
	} {
		resp, _ := postJSON(t, srv.URL+"/ask", tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status = %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
	// Wrong method.
	resp, err := http.Get(srv.URL + "/ask")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /ask status = %d, want 405", resp.StatusCode)
	}
}

func TestServerAskBatch(t *testing.T) {
	srv, _ := newServer(t)
	q := "What is the weather like in January of 2004 in El Prat?"
	body := `{"questions": [` +
		`"` + q + `", ` +
		`"How hot is it in Barcelona in February of 2004?", ` +
		`"   ", ` +
		`"` + q + `"]}`
	resp, raw := postJSON(t, srv.URL+"/ask/batch", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, raw)
	}
	var payload struct {
		Results []struct {
			Question string `json:"question"`
			Answer   *struct {
				Location string `json:"location"`
			} `json:"answer"`
			Cached bool   `json:"cached"`
			Error  string `json:"error"`
		} `json:"results"`
	}
	if err := json.Unmarshal(raw, &payload); err != nil {
		t.Fatalf("%v in %s", err, raw)
	}
	if len(payload.Results) != 4 {
		t.Fatalf("%d results, want 4", len(payload.Results))
	}
	// Order is preserved: slot i answers question i.
	if payload.Results[0].Question != q || payload.Results[3].Question != q {
		t.Error("result order does not match input order")
	}
	if payload.Results[0].Answer == nil || payload.Results[0].Answer.Location != "Barcelona" {
		t.Errorf("slot 0 answer = %+v", payload.Results[0].Answer)
	}
	if payload.Results[1].Answer == nil || payload.Results[1].Answer.Location != "Barcelona" {
		t.Errorf("slot 1 answer = %+v", payload.Results[1].Answer)
	}
	if payload.Results[2].Error == "" {
		t.Error("blank question should carry a per-item error")
	}
	if !payload.Results[3].Cached {
		t.Error("duplicate question should be coalesced (cached=true)")
	}
}

func TestServerTrace(t *testing.T) {
	srv, _ := newServer(t)
	resp, err := http.Get(srv.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	out := string(raw)
	for _, want := range []string{"Query", "Question pattern", "Extracted answer", "Barcelona"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace output missing %q:\n%s", want, out)
		}
	}
}

func TestServerHarvest(t *testing.T) {
	srv, eng := newServer(t)
	gen := eng.Generation()
	// Empty body selects the default workload; everything is a duplicate
	// of the feed newServer already ran.
	resp, raw := postJSON(t, srv.URL+"/harvest", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, raw)
	}
	var payload struct {
		Loaded     int    `json:"loaded"`
		Skipped    int    `json:"skipped"`
		Generation uint64 `json:"generation"`
		Results    []struct {
			Question string `json:"question"`
		} `json:"results"`
	}
	if err := json.Unmarshal(raw, &payload); err != nil {
		t.Fatalf("%v in %s", err, raw)
	}
	if payload.Loaded != 0 || payload.Skipped == 0 {
		t.Errorf("repeat feed loaded %d, skipped %d; want 0 loaded, >0 skipped",
			payload.Loaded, payload.Skipped)
	}
	if payload.Generation != gen+1 {
		t.Errorf("generation = %d, want %d", payload.Generation, gen+1)
	}
	if len(payload.Results) == 0 {
		t.Error("no per-question results")
	}
}

// TestServerAskRoutesAnalytic: POST /ask classifies and serves analytic
// questions with the OLAP payload (plan and rows, no text table) instead
// of a factoid answer; POST /ask/olap adds the table.
func TestServerAskRoutesAnalytic(t *testing.T) {
	srv, eng := newServer(t)
	const question = "What is the average temperature in Barcelona by month?"
	resp, body := postJSON(t, srv.URL+"/ask", `{"question": "`+question+`"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var payload struct {
		Answer *struct{} `json:"answer"`
		OLAP   *struct {
			Category string `json:"category"`
			Plan     string `json:"plan"`
			Rows     []struct {
				Groups []string `json:"groups"`
				Value  float64  `json:"value"`
				Count  int      `json:"count"`
			} `json:"rows"`
			Table string `json:"table"`
		} `json:"olap"`
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &payload); err != nil {
		t.Fatalf("%v in %s", err, body)
	}
	if payload.OLAP == nil {
		t.Fatalf("no olap payload: %s", body)
	}
	if payload.Answer != nil {
		t.Error("analytic answer must not carry a factoid answer")
	}
	if payload.OLAP.Category != "analytic" {
		t.Errorf("category = %q, want analytic", payload.OLAP.Category)
	}
	if payload.OLAP.Plan != "Weather avg(TempC) by Date/Month where City/City in {Barcelona}" {
		t.Errorf("plan = %q", payload.OLAP.Plan)
	}
	if len(payload.OLAP.Rows) != 3 { // January, February, March
		t.Errorf("rows = %d, want 3 months", len(payload.OLAP.Rows))
	}
	if payload.OLAP.Table != "" || strings.Contains(string(body), `"table"`) {
		t.Errorf("/ask carries a table: %s", body)
	}

	ans, err := eng.AskOLAP(context.Background(), question)
	if err != nil {
		t.Fatal(err)
	}
	_, body = postJSON(t, srv.URL+"/ask/olap", `{"question": "`+question+`"}`)
	var olap struct {
		Table string `json:"table"`
	}
	if err := json.Unmarshal(body, &olap); err != nil {
		t.Fatalf("%v in %s", err, body)
	}
	if want := ans.Result.Format(); olap.Table != want {
		t.Errorf("/ask/olap table = %q, want Result.Format() %q", olap.Table, want)
	}
}

// TestServerAskOLAP covers the analytic-only endpoint: success, factoid
// rejection and grounding failures.
func TestServerAskOLAP(t *testing.T) {
	srv, _ := newServer(t)

	resp, body := postJSON(t, srv.URL+"/ask/olap",
		`{"question": "Total last-minute revenue per destination city in January"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var payload struct {
		Plan string `json:"plan"`
		Rows []struct {
			Groups []string `json:"groups"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(body, &payload); err != nil {
		t.Fatalf("%v in %s", err, body)
	}
	if payload.Plan == "" || len(payload.Rows) == 0 {
		t.Errorf("olap payload = %s", body)
	}

	for _, tc := range []struct {
		name, body string
		wantStatus int
	}{
		{"factoid question", `{"question": "What is the weather like in January of 2004 in El Prat?"}`, http.StatusUnprocessableEntity},
		{"ungroundable entity", `{"question": "average temperature in Gotham by month"}`, http.StatusUnprocessableEntity},
		{"missing question", `{}`, http.StatusBadRequest},
		{"bad json", `{`, http.StatusBadRequest},
	} {
		resp, body := postJSON(t, srv.URL+"/ask/olap", tc.body)
		if resp.StatusCode != tc.wantStatus {
			t.Errorf("%s: status = %d, want %d (%s)", tc.name, resp.StatusCode, tc.wantStatus, body)
		}
	}
}
