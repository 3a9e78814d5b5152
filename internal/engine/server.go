package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"dwqa/internal/etl"
	"dwqa/internal/nl2olap"
	"dwqa/internal/obs"
	"dwqa/internal/qa"
	"dwqa/internal/sbparser"
	"dwqa/internal/store"
)

// Serving limits: oversized bodies are cut off at 413, oversized batches
// rejected at 422, rather than ballooning memory.
const (
	maxRequestBody = 1 << 20 // 1 MiB of JSON per request
	maxBatchSize   = 10_000  // questions per /ask/batch or /harvest call
)

// The Retry-After hint on 429 responses is derived from the engine's
// current load (Engine.RetryAfterSeconds): a queue one deadline deep
// tells clients to back off for one deadline, a deeper queue for
// proportionally longer.

// NewServer returns the HTTP JSON API over an engine:
//
//	POST /ask        {"question": "..."}        → one answer (factoid or,
//	                                              when classified analytic,
//	                                              the OLAP plan and rows)
//	POST /ask/batch  {"questions": ["...",…]}   → answers in input order
//	POST /ask/olap   {"question": "..."}        → the analytic path only:
//	                                              plan + rows + table
//	POST /harvest    {"questions": ["...",…]}   → Step 5 feed (empty body
//	                                              or list = default workload)
//	GET  /trace?q=…                             → the paper's Table 1 trace
//	GET  /healthz                               → serving statistics
//	GET  /metrics                               → Prometheus text exposition
//	                                              of the engine's registry
//
// Every JSON reply, error bodies included, is one compact line ending in
// "\n". Only /ask/olap carries "table", the result drawn as text
// (dw.Result.Format); /ask and /ask/batch carry the same result as "rows"
// alone. Each reply is encoded once: its encode time is the "encode"
// stage and its size counts into dwqa_response_bytes_total{route}.
//
// QA-level failures (a question no pattern matches) are reported per item
// in the JSON payload; transport and resilience failures use status
// codes (DESIGN.md §8):
//
//	413  request body over 1 MiB
//	422  batch over the question limit; /ask/olap non-analytic question
//	429  engine saturated, request shed (Retry-After tells when to retry)
//	403  read replica refused a feed (writes must go to the leader)
//	503  engine degraded read-only (feeds only; asks keep serving)
//	504  deadline expired — batch responses still carry the answers that
//	     finished in time, expired slots marked per item
//	500  a panic, recovered and confined to this request
//
// Every handler runs under the request's context, so client disconnects
// and server-side deadlines propagate into the engine.
//
// NewServer serves quietly (no access log); NewServerWith takes options.
func NewServer(e *Engine) http.Handler {
	return NewServerWith(e, ServerOptions{Quiet: true})
}

// ServerOptions configures the HTTP façade's logging.
type ServerOptions struct {
	// Logf receives the access-log and recovered-panic lines; nil
	// selects log.Printf.
	Logf func(format string, args ...any)
	// Quiet suppresses the per-request access log. Recovered panics are
	// logged regardless — a panic must never be silent.
	Quiet bool
}

// NewServerWith is NewServer with explicit logging options.
func NewServerWith(e *Engine, opts ServerOptions) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ask", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Question string `json:"question"`
		}
		if !decodeJSON(e, w, r, &req) {
			return
		}
		if req.Question == "" {
			httpError(e, w, http.StatusBadRequest, "missing question")
			return
		}
		res := e.Ask(r.Context(), req.Question)
		writeJSON(e, w, askStatus([]AskResult{res}), askJSON(res))
	})
	mux.HandleFunc("POST /ask/batch", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Questions []string `json:"questions"`
		}
		if !decodeJSON(e, w, r, &req) {
			return
		}
		if len(req.Questions) == 0 {
			httpError(e, w, http.StatusBadRequest, "missing questions")
			return
		}
		if len(req.Questions) > maxBatchSize {
			httpError(e, w, http.StatusUnprocessableEntity, fmt.Sprintf("batch of %d exceeds the %d-question limit", len(req.Questions), maxBatchSize))
			return
		}
		results := e.AskAll(r.Context(), req.Questions)
		out := struct {
			Results []askResponse `json:"results"`
		}{Results: make([]askResponse, len(results))}
		for i, res := range results {
			out.Results[i] = askJSON(res)
		}
		// A 504 or 500 batch still carries every completed answer; the
		// status tells the client the batch as a whole was cut short.
		writeJSON(e, w, askStatus(results), out)
	})
	mux.HandleFunc("POST /ask/olap", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Question string `json:"question"`
		}
		if !decodeJSON(e, w, r, &req) {
			return
		}
		if req.Question == "" {
			httpError(e, w, http.StatusBadRequest, "missing question")
			return
		}
		ans, err := e.AskOLAP(r.Context(), req.Question)
		if err != nil {
			code := errStatus(err)
			if code == 0 || code == http.StatusOK {
				code = http.StatusUnprocessableEntity
			}
			if errors.Is(err, nl2olap.ErrFactoid) {
				// Still 422, but spell out where the question belongs.
				err = fmt.Errorf("%w; POST /ask serves factoid questions", err)
			}
			httpError(e, w, code, err.Error())
			return
		}
		out := toOLAPJSON(ans)
		out.Table = ans.Result.Format()
		writeJSON(e, w, http.StatusOK, out)
	})
	mux.HandleFunc("POST /harvest", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Questions []string `json:"questions"`
		}
		// An empty body selects the default harvest workload.
		if !decodeJSONOptional(e, w, r, &req) {
			return
		}
		if len(req.Questions) > maxBatchSize {
			httpError(e, w, http.StatusUnprocessableEntity, fmt.Sprintf("batch of %d exceeds the %d-question limit", len(req.Questions), maxBatchSize))
			return
		}
		items, total, err := e.HarvestAll(r.Context(), req.Questions)
		if err != nil {
			code := errStatus(err)
			if code == 0 || code == http.StatusOK {
				code = http.StatusInternalServerError
			}
			if code == http.StatusGatewayTimeout && len(items) > 0 {
				// The deadline expired mid-harvest: nothing was committed
				// (the engine refuses partial feeds), but report how far
				// extraction got, per item, alongside the timeout.
				out := harvestJSON(e, items, nil)
				out.Error = err.Error()
				writeJSON(e, w, code, out)
				return
			}
			httpError(e, w, code, err.Error())
			return
		}
		writeJSON(e, w, http.StatusOK, harvestJSON(e, items, total))
	})
	mux.HandleFunc("GET /trace", func(w http.ResponseWriter, r *http.Request) {
		question := r.URL.Query().Get("q")
		if question == "" {
			// The paper's own Table 1 query.
			question = "What is the weather like in January of 2004 in El Prat?"
		}
		tr, err := e.Trace(r.Context(), question)
		if err != nil {
			code := errStatus(err)
			if code == 0 || code == http.StatusOK {
				code = http.StatusUnprocessableEntity
			}
			httpError(e, w, code, err.Error())
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, tr.Format())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		st := e.Stats()
		status := "ok"
		if st.State != "ready" {
			status = st.State
		}
		writeJSON(e, w, http.StatusOK, struct {
			Status string `json:"status"`
			Stats
		}{Status: status, Stats: st})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = e.Metrics().WriteTo(w)
	})
	return requestMiddleware(e, opts, mux)
}

// requestID numbers every request the process serves, across all
// servers, so a panic line and its access line correlate.
var requestID atomic.Uint64

// statusWriter captures the response status for the access log and the
// body size for dwqa_response_bytes_total.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += n
	return n, err
}

// outcomeClass folds a response status into the outcome vocabulary the
// access log and the slow-query log share: what happened to the
// request, as the resilience layer saw it.
func outcomeClass(status int) string {
	switch {
	case status < 300:
		return "ok"
	case status == http.StatusTooManyRequests:
		return "shed"
	case status == http.StatusGatewayTimeout:
		return "timeout"
	case status == http.StatusServiceUnavailable:
		return "degraded"
	case status == http.StatusForbidden:
		return "readonly"
	case status >= 400 && status < 500:
		return "client_error"
	default:
		return "error"
	}
}

// requestMiddleware is the request boundary: it stamps a request id,
// recovers panics that escape the engine's own worker-level nets
// (handler bugs, encoding panics) into a logged 500 for this one
// request instead of a dead process, and — unless Quiet — emits one
// structured access line per request. It also adds each reply's size to
// its JSON route's dwqa_response_bytes_total. The panic response may land on a
// partially-written body; WriteHeader on a written response is a no-op
// and the client sees a truncated body — still strictly better than
// losing every other in-flight request.
func requestMiddleware(e *Engine, opts ServerOptions, next http.Handler) http.Handler {
	logf := opts.Logf
	if logf == nil {
		logf = log.Printf
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := requestID.Add(1)
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		defer func() {
			if rec := recover(); rec != nil {
				e.met.panicTotal.Inc()
				logf("req=%d panic recovered serving %s %s: %v", id, r.Method, r.URL.Path, rec)
				httpError(e, sw, http.StatusInternalServerError, fmt.Sprintf("internal error: panic: %v", rec))
			}
			if c := e.met.responseBytes[r.URL.Path]; c != nil {
				c.Add(uint64(sw.bytes))
			}
			if !opts.Quiet {
				status := sw.status
				if status == 0 {
					status = http.StatusOK
				}
				logf("req=%d %s %s status=%d outcome=%s dur=%s",
					id, r.Method, r.URL.Path, status, outcomeClass(status),
					time.Since(start).Round(time.Microsecond))
			}
		}()
		next.ServeHTTP(sw, r)
	})
}

// errStatus maps an engine error to its transport status. 0 means the
// error is a per-item QA failure with no dedicated status (the handler
// picks its default).
func errStatus(err error) int {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, ErrShed):
		return http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, ErrReadOnlyReplica):
		return http.StatusForbidden
	case errors.Is(err, ErrDegraded), errors.Is(err, store.ErrWAL):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrPanic):
		return http.StatusInternalServerError
	}
	return 0
}

// askStatus folds a batch's per-item errors into one response status:
// shed and degraded outrank timeout (the request never ran), timeout
// outranks panic (the batch as a whole was cut short), panic outranks
// OK. Per-item QA failures leave the status 200 — they are answers.
func askStatus(results []AskResult) int {
	status := http.StatusOK
	for _, r := range results {
		switch errStatus(r.Err) {
		case http.StatusTooManyRequests:
			return http.StatusTooManyRequests
		case http.StatusServiceUnavailable:
			return http.StatusServiceUnavailable
		case http.StatusGatewayTimeout:
			status = http.StatusGatewayTimeout
		case http.StatusInternalServerError:
			if status == http.StatusOK {
				status = http.StatusInternalServerError
			}
		}
	}
	return status
}

// answerJSON is the wire form of one extracted answer.
type answerJSON struct {
	Text     string  `json:"text"`
	Rendered string  `json:"rendered"`
	Value    float64 `json:"value,omitempty"`
	HasValue bool    `json:"has_value,omitempty"`
	Unit     string  `json:"unit,omitempty"`
	Date     string  `json:"date,omitempty"`
	Location string  `json:"location,omitempty"`
	URL      string  `json:"url,omitempty"`
	Score    float64 `json:"score"`
}

// askResponse is the wire form of one answered question. Exactly one of
// Answer (factoid) and OLAP (analytic) is populated on success.
type askResponse struct {
	Question   string      `json:"question"`
	Answer     *answerJSON `json:"answer"` // null when nothing clears MinScore
	OLAP       *olapJSON   `json:"olap,omitempty"`
	Candidates int         `json:"candidates"`
	Passages   int         `json:"passages"`
	Cached     bool        `json:"cached"`
	Error      string      `json:"error,omitempty"`
}

// olapJSON is the wire form of one analytic answer: the compiled plan and
// its result rows, plus the rows drawn as a text table on /ask/olap.
type olapJSON struct {
	Question string        `json:"question"`
	Category string        `json:"category"`
	Plan     string        `json:"plan"`
	Rows     []olapRowJSON `json:"rows"`
	Table    string        `json:"table,omitempty"` // POST /ask/olap only
}

type olapRowJSON struct {
	Groups []string `json:"groups"`
	Value  float64  `json:"value"`
	Count  int      `json:"count"`
}

func toOLAPJSON(a *nl2olap.Answer) *olapJSON {
	out := &olapJSON{
		Question: a.Question,
		Category: string(qa.CatAnalytic),
		Plan:     a.PlanString(),
		Rows:     make([]olapRowJSON, len(a.Result.Rows)),
	}
	for i, r := range a.Result.Rows {
		out.Rows[i] = olapRowJSON{Groups: r.Groups, Value: r.Value, Count: r.Count}
	}
	return out
}

type harvestItemJSON struct {
	Question string `json:"question"`
	Answers  int    `json:"answers"`
	Loaded   int    `json:"loaded"`
	Skipped  int    `json:"skipped"`
	Error    string `json:"error,omitempty"`
}

type harvestResponse struct {
	Normalized int               `json:"normalized"`
	Loaded     int               `json:"loaded"`
	Skipped    int               `json:"skipped"`
	Rejected   int               `json:"rejected"`
	Generation uint64            `json:"generation"`
	Error      string            `json:"error,omitempty"` // batch-level (e.g. deadline)
	Results    []harvestItemJSON `json:"results"`
}

// harvestJSON renders a harvest batch; total may be nil (nothing was
// committed).
func harvestJSON(e *Engine, items []HarvestResult, total *etl.Report) harvestResponse {
	out := harvestResponse{
		Generation: e.Generation(),
		Results:    make([]harvestItemJSON, len(items)),
	}
	if total != nil {
		out.Normalized = total.Normalized
		out.Loaded = total.Loaded
		out.Skipped = total.Skipped
		out.Rejected = len(total.Rejections)
	}
	for i, it := range items {
		out.Results[i] = harvestItemJSON{
			Question: it.Question,
			Answers:  len(it.Answers),
			Loaded:   it.Loaded,
			Skipped:  it.Skipped,
		}
		if it.Err != nil {
			out.Results[i].Error = it.Err.Error()
		}
	}
	return out
}

func askJSON(r AskResult) askResponse {
	out := askResponse{Question: r.Question, Cached: r.Cached}
	if r.Err != nil {
		out.Error = r.Err.Error()
		return out
	}
	if r.OLAP != nil {
		out.OLAP = toOLAPJSON(r.OLAP)
		return out
	}
	out.Candidates = len(r.Result.Candidates)
	out.Passages = len(r.Result.Passages)
	if r.Result.Best != nil {
		out.Answer = toAnswerJSON(*r.Result.Best)
	}
	return out
}

func toAnswerJSON(a qa.Answer) *answerJSON {
	return &answerJSON{
		Text:     a.Text,
		Rendered: a.Render(),
		Value:    a.Value,
		HasValue: a.HasValue,
		Unit:     a.Unit,
		Date:     dateJSON(a.Date),
		Location: a.Location,
		URL:      a.URL,
		Score:    a.Score,
	}
}

// dateJSON renders a (possibly partial) date as ISO-style "2004-01-31",
// "2004-01" or "2004"; "" when nothing was recognised.
func dateJSON(d sbparser.DateRef) string {
	if d.Year == 0 {
		return ""
	}
	var buf [len("2004-01-31")]byte
	b := appendPadded(buf[:0], d.Year, 4)
	if d.Month != 0 {
		b = appendPadded(append(b, '-'), d.Month, 2)
		if d.Day != 0 {
			b = appendPadded(append(b, '-'), d.Day, 2)
		}
	}
	return string(b)
}

// appendPadded appends a non-negative n in decimal, zero-padded to width
// digits (fmt's %0*d).
func appendPadded(b []byte, n, width int) []byte {
	for p := 10; width > 1; width, p = width-1, p*10 {
		if n < p {
			b = append(b, '0')
		}
	}
	return strconv.AppendInt(b, int64(n), 10)
}

func decodeJSON(e *Engine, w http.ResponseWriter, r *http.Request, dst any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		httpError(e, w, decodeStatus(err), "bad request body: "+err.Error())
		return false
	}
	return true
}

// decodeJSONOptional is decodeJSON, but an entirely empty body is accepted
// and leaves dst at its zero value.
func decodeJSONOptional(e *Engine, w http.ResponseWriter, r *http.Request, dst any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil && err != io.EOF {
		httpError(e, w, decodeStatus(err), "bad request body: "+err.Error())
		return false
	}
	return true
}

// decodeStatus distinguishes an oversized body (413 — the client must
// shrink the request, retrying as-is cannot succeed) from malformed
// JSON (400).
func decodeStatus(err error) int {
	var maxErr *http.MaxBytesError
	if errors.As(err, &maxErr) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// errorJSON is the wire form of a request-level error.
type errorJSON struct {
	Error string `json:"error"`
}

// httpError replies with a request-level error through writeJSON.
func httpError(e *Engine, w http.ResponseWriter, code int, msg string) {
	writeJSON(e, w, code, errorJSON{Error: msg})
}

// writeJSON is the one reply writer of the JSON routes: it encodes v once,
// compactly, times that into the encode stage, and writes the headers
// (Content-Type, Retry-After on a 429), the status and the body as one
// line ending in "\n". A value that cannot be encoded (a NaN or infinite
// float) turns into a 500 error body instead of a silently empty 200.
func writeJSON(e *Engine, w http.ResponseWriter, code int, v any) {
	start := time.Now()
	body, err := json.Marshal(v)
	if err != nil {
		code = http.StatusInternalServerError
		body, _ = json.Marshal(errorJSON{Error: "encoding reply: " + err.Error()})
	}
	body = append(body, '\n')
	e.StageHistogram(obs.StageEncode).Observe(time.Since(start))
	w.Header().Set("Content-Type", "application/json")
	if code == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", strconv.Itoa(e.RetryAfterSeconds()))
	}
	if code != http.StatusOK {
		w.WriteHeader(code)
	}
	_, _ = w.Write(body)
}
