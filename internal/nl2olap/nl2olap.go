// Package nl2olap translates natural-language analytical questions into
// compiled OLAP query plans — the missing direction of the paper's
// integration. The five-step model lets QA feed the warehouse (Step 5);
// this package lets decision makers *ask the warehouse questions*:
// "average temperature in Barcelona by month" or "total last-minute
// revenue per destination city in January" become validated dw.Query
// plans instead of falling through to the factoid pipeline.
//
// The translation is metadata-driven in the spirit of SODA (Blunschi et
// al.) and Sigma Worksheet: the mdm.Schema graph supplies facts, measures,
// roles and roll-up levels; the warehouse's dimension tables ground member
// mentions ("Barcelona" → City member, "January" → Date filter); and the
// Step 2/3 ontology lexicon resolves domain instances and their aliases
// ("El Prat", "BCN" → the Barcelona city member via locatedIn).
//
// A Translator first classifies a question: questions without an
// aggregation keyword and a resolvable measure (or countable fact) are
// factoid — Translate returns ErrFactoid and the caller routes them to the
// AliQAn modules. Analytic questions compile to a dw.Query that is
// validated against the warehouse before it is returned, so a successful
// translation is always executable. The serving engine (internal/engine)
// dispatches between the two paths and caches analytic answers in the
// same LRU the factoid answers use, flushed on every Step 5 feed.
package nl2olap

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"dwqa/internal/dw"
	"dwqa/internal/etl"
	"dwqa/internal/mdm"
	"dwqa/internal/nlp"
	"dwqa/internal/ontology"
	"dwqa/internal/sbparser"
)

// ErrFactoid reports that a question is not analytic: it carries no
// aggregation intent the warehouse could answer, so it belongs to the
// factoid QA path. Callers test with errors.Is.
var ErrFactoid = errors.New("nl2olap: not an analytic question")

// measureRef names one aggregatable measure of one fact.
type measureRef struct {
	fact    string
	measure string
}

// TimeSpec names the calendar dimension and its levels, so date mentions
// ("January of 2004") compile to filters at the right granularity. Member
// names must follow the scenario's ISO convention: Year "2004", Month
// "2004-01", Day "2004-01-31".
type TimeSpec struct {
	Dimension string
	Day       string // "" when the dimension has no day level
	Month     string
	Year      string
}

// Translator compiles analytical questions against one warehouse. It is
// safe for concurrent use once configured: Translate and Answer only read
// the vocabulary tables and take the warehouse's read locks, so any number
// of serving workers may translate while Step 5 feeds load. The Add*/Set*
// configuration methods are not concurrent with translation — configure
// first, then serve (the pipeline wires it exactly that way).
type Translator struct {
	schema *mdm.Schema
	wh     Warehouse
	onto   *ontology.Ontology // may be nil (the E-ONTO ablation)

	aggWords map[string]dw.Agg
	measures map[string]measureRef // normalised phrase → measure
	counts   map[string]string     // normalised phrase → countable fact
	rolePref []string              // tie-break order for ambiguous roles
	prepRole map[string]string     // preposition lemma → preferred role
	time     TimeSpec
}

// Warehouse is what the translator needs from its OLAP back end: the
// schema to derive vocabulary from, member probes for grounding, and
// validated execution. A single *dw.Warehouse satisfies it directly; a
// sharded cluster satisfies it by scatter/gather (internal/shard).
type Warehouse interface {
	Schema() *mdm.Schema
	Validate(q dw.Query) error
	Execute(q dw.Query) (*dw.Result, error)
	Members(dim, level string) []string
	MemberKey(dim, level, name string) (int, error)
}

// New builds a translator over a warehouse. The vocabulary is derived from
// the schema: every measure name, fact name (camel-case split, whole
// phrase and final word) and the built-in aggregation keywords. Domain
// synonyms ("revenue" → Price) are added with AddMeasureSynonym et al.
// The ontology may be nil; member grounding then uses only the dimension
// tables.
func New(wh Warehouse, onto *ontology.Ontology) (*Translator, error) {
	if wh == nil {
		return nil, fmt.Errorf("nl2olap: nil warehouse")
	}
	schema := wh.Schema()
	t := &Translator{
		schema:   schema,
		wh:       wh,
		onto:     onto,
		aggWords: defaultAggWords(),
		measures: map[string]measureRef{},
		counts:   map[string]string{},
		prepRole: map[string]string{},
		time:     DetectTime(schema),
	}
	ambiguous := map[string]bool{}
	for _, f := range schema.Facts {
		for _, m := range f.Measures {
			key := normPhrase(m.Name)
			if prev, ok := t.measures[key]; ok && prev.fact != f.Name {
				ambiguous[key] = true
				continue
			}
			t.measures[key] = measureRef{fact: f.Name, measure: m.Name}
		}
		phrase := normPhrase(camelSplit(f.Name))
		t.counts[phrase] = f.Name
		words := strings.Fields(phrase)
		if last := words[len(words)-1]; len(words) > 1 {
			if prev, ok := t.counts[last]; !ok || prev == f.Name {
				t.counts[last] = f.Name
			}
		}
	}
	for key := range ambiguous {
		delete(t.measures, key)
	}
	return t, nil
}

// Schema returns the metadata schema the translator compiles against —
// read-only; callers use it to map a plan's filter roles back to their
// dimensions (the serving cache's invalidation tags need that mapping).
func (t *Translator) Schema() *mdm.Schema {
	return t.schema
}

// DetectTime finds the calendar dimension of a schema: the first dimension
// carrying both a Month and a Year level (the scenario's Date dimension).
// The zero TimeSpec disables date grounding.
func DetectTime(schema *mdm.Schema) TimeSpec {
	for _, d := range schema.Dimensions {
		if d.Level("Month") != nil && d.Level("Year") != nil {
			ts := TimeSpec{Dimension: d.Name, Month: "Month", Year: "Year"}
			if d.Level("Day") != nil {
				ts.Day = "Day"
			}
			return ts
		}
	}
	return TimeSpec{}
}

// AddMeasureSynonym teaches the translator that a word or phrase names a
// fact's measure ("revenue" → LastMinuteSales.Price).
func (t *Translator) AddMeasureSynonym(phrase, fact, measure string) error {
	fc := t.schema.Fact(fact)
	if fc == nil {
		return fmt.Errorf("nl2olap: unknown fact %q", fact)
	}
	if fc.Measure(measure) == nil {
		return fmt.Errorf("nl2olap: fact %q has no measure %q", fact, measure)
	}
	key := normPhrase(phrase)
	if key == "" {
		return fmt.Errorf("nl2olap: empty measure synonym")
	}
	t.measures[key] = measureRef{fact: fact, measure: measure}
	return nil
}

// AddCountSynonym teaches the translator that a word or phrase names the
// rows of a fact ("tickets" → LastMinuteSales), the target of counting
// questions.
func (t *Translator) AddCountSynonym(phrase, fact string) error {
	if t.schema.Fact(fact) == nil {
		return fmt.Errorf("nl2olap: unknown fact %q", fact)
	}
	key := normPhrase(phrase)
	if key == "" {
		return fmt.Errorf("nl2olap: empty count synonym")
	}
	t.counts[key] = fact
	return nil
}

// SetRolePreference fixes the tie-break order when a level or member
// belongs to a dimension referenced under several roles (the scenario's
// Airport dimension plays Departure and Destination; an unqualified
// "by city" groups the preferred role).
func (t *Translator) SetRolePreference(roles ...string) {
	t.rolePref = append([]string(nil), roles...)
}

// SetPrepositionRole binds a preposition to a role: "from Madrid" filters
// the Departure role, "to Madrid" the Destination.
func (t *Translator) SetPrepositionRole(prep, role string) {
	t.prepRole[strings.ToLower(prep)] = role
}

// Translation is one compiled question: the validated plan plus the
// grounding trail (which word resolved to which metadata object), in
// discovery order, for traces and the golden corpus.
type Translation struct {
	Question string
	Query    dw.Query
	Notes    []string
	// DynamicFilters names the (role, level) pairs whose filter values
	// were enumerated from the warehouse's current member list rather
	// than written literally in the question (a bare "in January" with
	// no year selects every matching Month member that exists *now*).
	// A cached answer for such a plan depends on the level's whole
	// member population, not just the members it matched — the serving
	// cache tags it accordingly so feeds that add members to the level
	// evict it.
	DynamicFilters []dw.LevelSel
}

// Answer is an executed translation: the plan and its result table.
type Answer struct {
	Translation
	Result *dw.Result
}

// PlanString renders the compiled plan deterministically — the byte-level
// identity the metamorphic tests assert across paraphrases. Filters are
// sorted by (role, level) with sorted values, so surface order never
// leaks; group-by order is semantic (column order) and is preserved.
func (tr *Translation) PlanString() string {
	q := tr.Query
	var b strings.Builder
	b.WriteString(q.Fact)
	b.WriteString(" ")
	b.WriteString(string(q.Agg))
	b.WriteString("(")
	b.WriteString(q.Measure)
	b.WriteString(")")
	if len(q.GroupBy) > 0 {
		b.WriteString(" by ")
		for i, g := range q.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(g.Role + "/" + g.Level)
		}
	}
	if len(q.Filters) > 0 {
		b.WriteString(" where ")
		for i, f := range q.Filters {
			if i > 0 {
				b.WriteString(" and ")
			}
			b.WriteString(f.Role + "/" + f.Level + " in {" + strings.Join(f.Values, ", ") + "}")
		}
	}
	return b.String()
}

// Translate classifies and compiles one question. Factoid questions
// return ErrFactoid; analytic questions either compile to a plan the
// warehouse has validated, or fail with a grounding error that names the
// word the metadata could not absorb.
func (t *Translator) Translate(question string) (*Translation, error) {
	q := strings.TrimSpace(question)
	if q == "" {
		return nil, ErrFactoid
	}
	sents := nlp.SplitSentences(q)
	if len(sents) == 0 || len(sents[0].Tokens) == 0 {
		return nil, ErrFactoid
	}
	toks := sents[0].Tokens
	used := make([]bool, len(toks))
	tr := &Translation{Question: q}

	// 1. Aggregation intent: no keyword, no analytic question.
	agg, ok := t.findAgg(toks, used, tr)
	if !ok {
		return nil, ErrFactoid
	}

	// 2. Measure or countable fact: the anchor that selects the fact
	// table. Without one the aggregation word is conversational ("how
	// many terms did La Guardia serve?") and the factoid path owns it.
	mref, countFact := t.findMeasure(toks, used, tr)
	var fact, measure string
	switch {
	case mref != nil:
		fact, measure = mref.fact, mref.measure
	case countFact != "":
		fact = countFact
		switch agg {
		case dw.Count, dw.Sum:
			// "total sales" / "number of tickets": counting rows.
			agg, measure = dw.Count, ""
		default:
			fc := t.schema.Fact(fact)
			if len(fc.Measures) != 1 {
				return nil, fmt.Errorf("nl2olap: %s over fact %q needs an explicit measure (it has %d)",
					agg, fact, len(fc.Measures))
			}
			measure = fc.Measures[0].Name
			tr.note("measure defaulted to %s.%s", fact, measure)
		}
	default:
		return nil, ErrFactoid
	}
	fc := t.schema.Fact(fact)

	// 3. Group-by selections: "by city", "per destination city",
	// "for each month and country".
	groupBy, err := t.findGroupBy(toks, used, fc, tr)
	if err != nil {
		return nil, err
	}

	// 4. Temporal constraints, via the same shallow date parser the QA
	// side uses, compiled to filters at the finest level mentioned.
	filters, err := t.dateFilters(toks, used, fc, tr)
	if err != nil {
		return nil, err
	}

	// 5. Member grounding: remaining content words resolved against the
	// dimension tables and the ontology lexicon.
	filters, err = t.groundMembers(toks, used, fc, filters, tr)
	if err != nil {
		return nil, err
	}

	tr.Query = dw.Query{
		Fact:    fact,
		Measure: measure,
		Agg:     agg,
		GroupBy: groupBy,
		Filters: canonicalFilters(filters),
	}
	if err := t.wh.Validate(tr.Query); err != nil {
		// Construction errors are translator bugs; surface them rather
		// than executing a plan the warehouse rejects.
		return nil, fmt.Errorf("nl2olap: compiled plan rejected: %w", err)
	}
	return tr, nil
}

// Timings reports the wall-clock time one analytic question spent
// compiling (Translate) and executing against the warehouse, returned
// by value from AnswerTimed (no allocation on the serving hot path).
// Compile is stamped even when Translate fails — classifying a factoid
// question (ErrFactoid) is real work on the serving path.
type Timings struct {
	Compile time.Duration
	Execute time.Duration
}

// Answer translates and executes in one step — the serving engine's
// analytic path.
func (t *Translator) Answer(question string) (*Answer, error) {
	a, _, err := t.AnswerTimed(question)
	return a, err
}

// AnswerTimed is Answer with compile/execute timing returned by value.
func (t *Translator) AnswerTimed(question string) (*Answer, Timings, error) {
	var tm Timings
	at := time.Now()
	tr, err := t.Translate(question)
	tm.Compile = time.Since(at)
	if err != nil {
		return nil, tm, err
	}
	at = time.Now()
	res, err := t.wh.Execute(tr.Query)
	tm.Execute = time.Since(at)
	if err != nil {
		return nil, tm, fmt.Errorf("nl2olap: executing plan: %w", err)
	}
	return &Answer{Translation: *tr, Result: res}, tm, nil
}

// note appends one grounding-trail line.
func (tr *Translation) note(format string, args ...any) {
	tr.Notes = append(tr.Notes, fmt.Sprintf(format, args...))
}

// defaultAggWords is the built-in aggregation keyword inventory.
func defaultAggWords() map[string]dw.Agg {
	return map[string]dw.Agg{
		"average": dw.Avg, "avg": dw.Avg, "mean": dw.Avg,
		"total": dw.Sum, "sum": dw.Sum, "overall": dw.Sum,
		"maximum": dw.Max, "max": dw.Max, "highest": dw.Max,
		"hottest": dw.Max, "warmest": dw.Max, "peak": dw.Max,
		"minimum": dw.Min, "min": dw.Min, "lowest": dw.Min,
		"coldest": dw.Min, "coolest": dw.Min, "cheapest": dw.Min,
		"count": dw.Count, "number": dw.Count,
	}
}

// findAgg locates the first aggregation keyword ("how many"/"how much"
// count as one). Returns false when the question carries none.
func (t *Translator) findAgg(toks []nlp.Token, used []bool, tr *Translation) (dw.Agg, bool) {
	for i := range toks {
		if used[i] {
			continue
		}
		lower := strings.ToLower(toks[i].Text)
		if lower == "how" && i+1 < len(toks) {
			next := strings.ToLower(toks[i+1].Text)
			// "how many tickets" counts rows; "how much revenue" sums the
			// measure (and still degrades to a count when only a countable
			// fact resolves — see the semantics step in Translate).
			if next == "many" || next == "much" {
				agg := dw.Count
				if next == "much" {
					agg = dw.Sum
				}
				used[i], used[i+1] = true, true
				tr.note("aggregation %q → %s", "how "+next, agg)
				return agg, true
			}
		}
		if agg, ok := t.aggWords[lower]; ok {
			used[i] = true
			// "number of", "count of": the "of" belongs to the keyword.
			if agg == dw.Count && i+1 < len(toks) && strings.EqualFold(toks[i+1].Text, "of") {
				used[i+1] = true
			}
			tr.note("aggregation %q → %s", lower, agg)
			return agg, true
		}
	}
	return "", false
}

// findMeasure scans left to right, longest phrase first, for a measure
// synonym; failing that, for a countable-fact synonym.
func (t *Translator) findMeasure(toks []nlp.Token, used []bool, tr *Translation) (*measureRef, string) {
	if key, span, ok := matchPhrase(toks, used, func(key string) bool { _, ok := t.measures[key]; return ok }); ok {
		m := t.measures[key]
		markUsed(used, span)
		tr.note("measure %q → %s.%s", key, m.fact, m.measure)
		return &m, ""
	}
	if key, span, ok := matchPhrase(toks, used, func(key string) bool { _, ok := t.counts[key]; return ok }); ok {
		fact := t.counts[key]
		markUsed(used, span)
		tr.note("count target %q → %s", key, fact)
		return nil, fact
	}
	return nil, ""
}

// maxPhraseLen bounds multi-word vocabulary and member lookups.
const maxPhraseLen = 4

// matchPhrase finds the leftmost longest unconsumed token span whose
// normalised join satisfies ok.
func matchPhrase(toks []nlp.Token, used []bool, ok func(string) bool) (string, [2]int, bool) {
	for i := range toks {
		if used[i] {
			continue
		}
		for l := maxPhraseLen; l >= 1; l-- {
			if i+l > len(toks) || anyUsed(used, i, i+l) {
				continue
			}
			key := normSpan(toks[i : i+l])
			if key != "" && ok(key) {
				return key, [2]int{i, i + l}, true
			}
		}
	}
	return "", [2]int{}, false
}

func anyUsed(used []bool, from, to int) bool {
	for i := from; i < to; i++ {
		if used[i] {
			return true
		}
	}
	return false
}

func markUsed(used []bool, span [2]int) {
	for i := span[0]; i < span[1]; i++ {
		used[i] = true
	}
}

// groupMarkerAt reports whether a group-by marker starts at i and how many
// tokens it spans: "by", "per", "for each", "grouped by", "broken down by".
func groupMarkerAt(toks []nlp.Token, i int) int {
	lower := func(j int) string {
		if j >= len(toks) {
			return ""
		}
		return strings.ToLower(toks[j].Text)
	}
	switch lower(i) {
	case "by", "per":
		return 1
	case "for":
		if lower(i+1) == "each" || lower(i+1) == "every" {
			return 2
		}
	case "grouped":
		if lower(i+1) == "by" {
			return 2
		}
	case "broken":
		if lower(i+1) == "down" && lower(i+2) == "by" {
			return 3
		}
	}
	return 0
}

// findGroupBy parses every group-by marker and resolves its selections to
// (role, level) pairs of the fact. Exact duplicates collapse (asking "by
// city per city" is redundant, not an error).
func (t *Translator) findGroupBy(toks []nlp.Token, used []bool, fc *mdm.FactClass, tr *Translation) ([]dw.LevelSel, error) {
	var out []dw.LevelSel
	seen := map[dw.LevelSel]bool{}
	add := func(sel dw.LevelSel, phrase string) {
		if !seen[sel] {
			seen[sel] = true
			out = append(out, sel)
			tr.note("group %q → %s/%s", phrase, sel.Role, sel.Level)
		}
	}
	for i := 0; i < len(toks); i++ {
		if used[i] {
			continue
		}
		span := groupMarkerAt(toks, i)
		if span == 0 {
			continue
		}
		j := i + span
		consumedAny := false
		for {
			sel, phrase, next, ok := t.parseSelection(toks, used, fc, j)
			if !ok {
				break
			}
			markUsed(used, [2]int{j, next})
			add(sel, phrase)
			consumedAny = true
			j = next
			// Coordinated selections: "by city and month". The connective
			// is consumed only when another selection actually follows.
			if j < len(toks) && !used[j] &&
				(strings.EqualFold(toks[j].Text, "and") || toks[j].Text == ",") {
				if _, _, _, more := t.parseSelection(toks, used, fc, j+1); more {
					used[j] = true
					j++
					continue
				}
			}
			break
		}
		if consumedAny {
			markUsed(used, [2]int{i, i + span})
		}
	}
	return out, nil
}

// parseSelection reads one group-by selection at position j: an optional
// determiner, an optional role qualifier, then a level word — or a bare
// role name, which selects the base level of its dimension ("per
// destination" groups by airport).
func (t *Translator) parseSelection(toks []nlp.Token, used []bool, fc *mdm.FactClass, j int) (dw.LevelSel, string, int, bool) {
	for j < len(toks) && !used[j] && (toks[j].Tag == nlp.TagDT || strings.EqualFold(toks[j].Text, "each")) {
		j++
	}
	if j >= len(toks) || used[j] {
		return dw.LevelSel{}, "", j, false
	}
	word := strings.ToLower(toks[j].Text)

	// Role qualifier + level: "destination city", "departure airport".
	if role := t.roleNamed(fc, word); role != nil && j+1 < len(toks) && !used[j+1] {
		levelWord := strings.ToLower(toks[j+1].Text)
		if lvl := levelNamed(t.schema.Dimension(role.Dimension), levelWord); lvl != "" {
			return dw.LevelSel{Role: role.Role, Level: lvl}, word + " " + levelWord, j + 2, true
		}
	}
	// Bare role: base level of its dimension.
	if role := t.roleNamed(fc, word); role != nil {
		base := t.schema.Dimension(role.Dimension).Base()
		return dw.LevelSel{Role: role.Role, Level: base.Name}, word, j + 1, true
	}
	// Bare level word, resolved across the fact's roles.
	if sel, ok := t.levelAcrossRoles(fc, word, ""); ok {
		return sel, word, j + 1, true
	}
	return dw.LevelSel{}, "", j, false
}

// roleNamed finds a fact role by (case-insensitive) name.
func (t *Translator) roleNamed(fc *mdm.FactClass, word string) *mdm.DimensionRef {
	for i := range fc.Dimensions {
		if strings.EqualFold(fc.Dimensions[i].Role, word) {
			return &fc.Dimensions[i]
		}
	}
	return nil
}

// levelNamed finds a dimension level by (case-insensitive) name.
func levelNamed(d *mdm.DimensionClass, word string) string {
	if d == nil {
		return ""
	}
	for _, l := range d.Levels {
		if strings.EqualFold(l.Name, word) {
			return l.Name
		}
	}
	return ""
}

// levelAcrossRoles resolves a bare level word against every role of the
// fact, breaking ties with the preferred-preposition role (when given)
// and then the configured role preference.
func (t *Translator) levelAcrossRoles(fc *mdm.FactClass, word, preferRole string) (dw.LevelSel, bool) {
	var cands []dw.LevelSel
	for _, ref := range fc.Dimensions {
		if lvl := levelNamed(t.schema.Dimension(ref.Dimension), word); lvl != "" {
			cands = append(cands, dw.LevelSel{Role: ref.Role, Level: lvl})
		}
	}
	return pickRole(cands, preferRole, t.rolePref)
}

// pickRole chooses among same-level candidates on different roles.
func pickRole(cands []dw.LevelSel, preferRole string, rolePref []string) (dw.LevelSel, bool) {
	if len(cands) == 0 {
		return dw.LevelSel{}, false
	}
	if len(cands) == 1 {
		return cands[0], true
	}
	if preferRole != "" {
		for _, c := range cands {
			if strings.EqualFold(c.Role, preferRole) {
				return c, true
			}
		}
	}
	for _, pref := range rolePref {
		for _, c := range cands {
			if strings.EqualFold(c.Role, pref) {
				return c, true
			}
		}
	}
	return cands[0], true
}

// dateFilters extracts the question's temporal constraints and compiles
// them to filters on the fact's calendar role. Every month-name and
// cardinal token is consumed whether or not it contributed — numbers
// never ground as members.
func (t *Translator) dateFilters(toks []nlp.Token, used []bool, fc *mdm.FactClass, tr *Translation) ([]dw.Filter, error) {
	refs := sbparser.ExtractDates(sbparser.Parse(nlp.Sentence{Tokens: toks}))
	for i, tok := range toks {
		lower := strings.ToLower(tok.Text)
		if _, ok := nlp.IsMonthName(lower); ok || tok.Tag == nlp.TagCD {
			used[i] = true
		}
	}
	if len(refs) == 0 || t.time.Dimension == "" {
		return nil, nil
	}
	var timeRole string
	for _, ref := range fc.Dimensions {
		if ref.Dimension == t.time.Dimension {
			timeRole = ref.Role
			break
		}
	}
	if timeRole == "" {
		return nil, fmt.Errorf("nl2olap: fact %q has no %s dimension for the date constraint",
			fc.Name, t.time.Dimension)
	}
	values := map[string][]string{} // level → member values
	for _, d := range refs {
		level, vals, dynamic := t.dateMembers(d)
		if level == "" {
			continue
		}
		if dynamic {
			tr.DynamicFilters = append(tr.DynamicFilters, dw.LevelSel{Role: timeRole, Level: level})
		}
		values[level] = append(values[level], vals...)
		tr.note("date %s → %s/%s in {%s}", dateRefString(d), timeRole, level, strings.Join(vals, ", "))
	}
	var out []dw.Filter
	for _, level := range []string{t.time.Day, t.time.Month, t.time.Year} {
		if level == "" {
			continue
		}
		if vals, ok := values[level]; ok {
			out = append(out, dw.Filter{Role: timeRole, Level: level, Values: vals})
		}
	}
	return out, nil
}

// dateMembers maps one (possibly partial) date reference to a level and
// the member names it selects. A bare month ("in January") enumerates the
// matching month members the warehouse actually holds, across years —
// that branch reports dynamic=true because its value set tracks the
// level's live member population.
func (t *Translator) dateMembers(d sbparser.DateRef) (level string, vals []string, dynamic bool) {
	switch {
	case d.Year != 0 && d.Month != 0 && d.Day != 0 && t.time.Day != "":
		return t.time.Day, []string{fmt.Sprintf("%04d-%02d-%02d", d.Year, d.Month, d.Day)}, false
	case d.Year != 0 && d.Month != 0:
		return t.time.Month, []string{fmt.Sprintf("%04d-%02d", d.Year, d.Month)}, false
	case d.Month != 0:
		suffix := fmt.Sprintf("-%02d", d.Month)
		for _, m := range t.wh.Members(t.time.Dimension, t.time.Month) {
			if strings.HasSuffix(m, suffix) {
				vals = append(vals, m)
			}
		}
		return t.time.Month, vals, true
	case d.Year != 0:
		return t.time.Year, []string{fmt.Sprintf("%04d", d.Year)}, false
	}
	return "", nil, false
}

func dateRefString(d sbparser.DateRef) string {
	return fmt.Sprintf("%04d-%02d-%02d", d.Year, d.Month, d.Day)
}

// groundMembers resolves the remaining content words as dimension members
// (slice/dice filters). Mentions that resolve nowhere are an error when
// they are proper nouns or the complement of a preposition ("in gotham"):
// an analytic question naming an unknown entity — or carrying a
// constraint the metadata cannot compile — must not silently widen to
// the whole fact table.
func (t *Translator) groundMembers(toks []nlp.Token, used []bool, fc *mdm.FactClass, filters []dw.Filter, tr *Translation) ([]dw.Filter, error) {
	byKey := map[dw.LevelSel]int{} // (role, level) → index in filters
	for i, f := range filters {
		byKey[dw.LevelSel{Role: f.Role, Level: f.Level}] = i
	}
	for i := 0; i < len(toks); i++ {
		if used[i] || !startsMention(toks[i]) {
			continue
		}
		matched := false
		for l := maxPhraseLen; l >= 1; l-- {
			if i+l > len(toks) || anyUsed(used, i, i+l) {
				continue
			}
			surface := surfaceSpan(toks[i : i+l])
			sel, value, via, ok := t.groundOne(fc, surface, precedingPrep(toks, used, i))
			if !ok {
				continue
			}
			markUsed(used, [2]int{i, i + l})
			key := dw.LevelSel{Role: sel.Role, Level: sel.Level}
			if idx, exists := byKey[key]; exists {
				filters[idx].Values = append(filters[idx].Values, value)
			} else {
				byKey[key] = len(filters)
				filters = append(filters, dw.Filter{Role: sel.Role, Level: sel.Level, Values: []string{value}})
			}
			tr.note("member %q → %s/%s %q%s", surface, sel.Role, sel.Level, value, via)
			i += l - 1
			matched = true
			break
		}
		if !matched && !nlp.IsDayName(strings.ToLower(toks[i].Text)) &&
			(toks[i].Tag == nlp.TagNP || precedingPrep(toks, used, i) != "") {
			return nil, fmt.Errorf("nl2olap: cannot ground %q against the %s warehouse metadata",
				toks[i].Text, fc.Name)
		}
	}
	return filters, nil
}

// startsMention reports whether a token can begin a member mention:
// nominal or adjective-tagged content (proper nouns, unknown words), not
// function words, verbs or punctuation.
func startsMention(tok nlp.Token) bool {
	switch tok.Tag {
	case nlp.TagNP, nlp.TagNN, nlp.TagNNS, nlp.TagJJ:
		return !nlp.IsStopword(strings.ToLower(tok.Text))
	}
	return false
}

// precedingPrep returns the preposition immediately before token i (one
// consumed determiner may intervene: "from the Madrid airport").
func precedingPrep(toks []nlp.Token, used []bool, i int) string {
	for j := i - 1; j >= 0 && j >= i-2; j-- {
		if toks[j].Tag == nlp.TagDT {
			continue
		}
		if toks[j].Tag.IsPreposition() || toks[j].Tag == nlp.TagTO {
			return strings.ToLower(toks[j].Text)
		}
		return ""
	}
	return ""
}

// groundOne resolves one surface form to a (role, level, member) of the
// fact: first against the dimension tables (exact, then title-cased),
// then through the ontology lexicon (instances and their aliases, with
// locatedIn indirection for facts that lack the instance's own level).
// via describes the indirection for the grounding trail.
func (t *Translator) groundOne(fc *mdm.FactClass, surface, prep string) (dw.LevelSel, string, string, bool) {
	preferRole := ""
	if prep != "" {
		preferRole = t.prepRole[prep]
	}
	if sel, value, ok := t.memberLookup(fc, surface, preferRole); ok {
		return sel, value, "", true
	}
	if t.onto != nil {
		if concept, inst := t.onto.FindInstance(surface); inst != nil {
			// The instance's concept may itself be a level of the fact
			// ("El Prat" is an Airport member for the sales fact)...
			if sel, value, ok := t.memberLookup(fc, inst.Name, preferRole); ok {
				return sel, value, fmt.Sprintf(" (ontology %s)", concept), true
			}
			// ...or only reachable through its location ("El Prat" →
			// Barcelona for the Weather fact's City role).
			if city := inst.Properties["locatedIn"]; city != "" {
				if sel, value, ok := t.memberLookup(fc, city, preferRole); ok {
					return sel, value, fmt.Sprintf(" (ontology %s, locatedIn)", concept), true
				}
			}
		}
	}
	return dw.LevelSel{}, "", "", false
}

// memberLookup finds a member by name across every (role, level) of the
// fact, trying the surface form, its title-cased variant, and the ETL
// canonical form — the same etl.CanonicalCity the Step 5 feed path mints
// members with, so "BARCELONA" and "el prat" ground to exactly the
// members feeding created ("Barcelona", "El Prat") instead of depending
// on a second, subtly different casing rule. Levels are probed
// base-first, so "El Prat" grounds at Airport before City.
func (t *Translator) memberLookup(fc *mdm.FactClass, surface, preferRole string) (dw.LevelSel, string, bool) {
	names := []string{surface}
	if tc := titleCase(surface); tc != surface {
		names = append(names, tc)
	}
	if cc := etl.CanonicalCity(surface); cc != surface {
		dup := false
		for _, n := range names {
			if n == cc {
				dup = true
				break
			}
		}
		if !dup {
			names = append(names, cc)
		}
	}
	for _, name := range names {
		var cands []dw.LevelSel
		for _, ref := range fc.Dimensions {
			d := t.schema.Dimension(ref.Dimension)
			for _, lvl := range d.Levels {
				if _, err := t.wh.MemberKey(ref.Dimension, lvl.Name, name); err == nil {
					cands = append(cands, dw.LevelSel{Role: ref.Role, Level: lvl.Name})
					break // base-first: the finest level of this role wins
				}
			}
		}
		if sel, ok := pickRole(cands, preferRole, t.rolePref); ok {
			return sel, name, true
		}
	}
	return dw.LevelSel{}, "", false
}

// canonicalFilters sorts filters by (role, level) and their values
// alphabetically (deduplicated), so paraphrases compile to identical
// plans.
func canonicalFilters(filters []dw.Filter) []dw.Filter {
	for i := range filters {
		sort.Strings(filters[i].Values)
		filters[i].Values = dedupeSorted(filters[i].Values)
	}
	sort.Slice(filters, func(i, j int) bool {
		if filters[i].Role != filters[j].Role {
			return filters[i].Role < filters[j].Role
		}
		return filters[i].Level < filters[j].Level
	})
	return filters
}

func dedupeSorted(vals []string) []string {
	out := vals[:0]
	for i, v := range vals {
		if i == 0 || v != vals[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// surfaceSpan joins token texts with single spaces.
func surfaceSpan(toks []nlp.Token) string {
	parts := make([]string, len(toks))
	for i, t := range toks {
		parts[i] = t.Text
	}
	return strings.Join(parts, " ")
}

// normSpan normalises a token span for vocabulary lookup: lower-cased,
// hyphens split ("last-minute sales" matches the fact phrase).
func normSpan(toks []nlp.Token) string {
	parts := make([]string, len(toks))
	for i, t := range toks {
		parts[i] = t.Text
	}
	return normPhrase(strings.Join(parts, " "))
}

// normPhrase is the shared vocabulary-key normalisation.
func normPhrase(s string) string {
	s = strings.ToLower(s)
	s = strings.ReplaceAll(s, "-", " ")
	return strings.Join(strings.Fields(s), " ")
}

// camelSplit renders a CamelCase identifier as words ("LastMinuteSales" →
// "Last Minute Sales").
func camelSplit(s string) string {
	var b strings.Builder
	for i, r := range s {
		if i > 0 && r >= 'A' && r <= 'Z' {
			b.WriteByte(' ')
		}
		b.WriteRune(r)
	}
	return b.String()
}

// titleCase capitalises each word ("new york" → "New York").
func titleCase(s string) string {
	fields := strings.Fields(s)
	for i, f := range fields {
		if len(f) > 0 {
			fields[i] = strings.ToUpper(f[:1]) + f[1:]
		}
	}
	return strings.Join(fields, " ")
}
