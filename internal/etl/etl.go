// Package etl implements Step 5 of the paper's integration model: "the QA
// system will feed the DW with the new information extracted from the
// queries posed on the Web". Harvested answers are normalised into
// structured records (temperature – date – city – web page), validated
// against the ontology axioms (unit known, value in the valid interval,
// Fahrenheit converted through the conversion formula), and loaded into a
// Weather fact table with full provenance — the paper stores the web page
// alongside each record "to make the approach robust against errors".
package etl

import (
	"fmt"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"

	"dwqa/internal/dw"
	"dwqa/internal/mdm"
	"dwqa/internal/ontology"
	"dwqa/internal/qa"
)

// CanonicalCity returns the canonical member-name form of a city
// mention: whitespace-normalised, with each word's first rune
// upper-cased ("el  prat" → "El Prat") and shouted words folded down
// ("BARCELONA" → "Barcelona"). Normalize, LoadAll, LoadRecords, the
// warehouse dedup probe and the NL→OLAP member grounding all key on this
// one form, so "Barcelona", "barcelona" and "BARCELONA" are the same dedup
// key, the same City member AND the same query filter value — the
// pre-fix code lowercased the dedup key but created members from the
// raw surface form, letting arrival order mint case-variant members for
// records it had already deduplicated, and the grounding path had its
// own title-casing that disagreed with this one on ALL-CAPS mentions.
// Mixed-case words ("McMurdo", "O'Hare") pass through untouched: only a
// fully upper-cased word (more than one letter) is treated as shouting.
func CanonicalCity(s string) string {
	if isCanonicalCity(s) {
		return s
	}
	fields := strings.Fields(s)
	for i, f := range fields {
		if allUpper(f) {
			r, size := utf8.DecodeRuneInString(f)
			fields[i] = string(r) + strings.ToLower(f[size:])
			continue
		}
		r, size := utf8.DecodeRuneInString(f)
		if unicode.IsLower(r) {
			fields[i] = string(unicode.ToUpper(r)) + f[size:]
		}
	}
	return strings.Join(fields, " ")
}

// isCanonicalCity reports, without allocating, that CanonicalCity(s) ==
// s: s is single-spaced ASCII words, none of which is upper-case
// throughout or starts with a lower-case letter.
func isCanonicalCity(s string) bool {
	start := 0
	for i := 0; i <= len(s); i++ {
		if i < len(s) && s[i] != ' ' {
			if c := s[i]; c >= 0x80 || ('\t' <= c && c <= '\r') {
				return false
			}
			continue
		}
		w := s[start:i]
		if w == "" || allUpper(w) || ('a' <= w[0] && w[0] <= 'z') {
			return false
		}
		start = i + 1
	}
	return true
}

// allUpper reports whether the word consists of at least two letters,
// all upper-case (ignoring non-letters, so "NEW-YORK" counts).
func allUpper(s string) bool {
	letters := 0
	for _, r := range s {
		if !unicode.IsLetter(r) {
			continue
		}
		if !unicode.IsUpper(r) {
			return false
		}
		letters++
	}
	return letters > 1
}

// WeatherRecord is a normalised (temperature – date – city – web page)
// tuple ready for warehouse loading. TempC is always Celsius.
type WeatherRecord struct {
	City      string
	Year      int
	Month     int
	Day       int
	TempC     float64
	SourceURL string
	Score     float64 // extraction confidence carried from the QA system
}

// The date keys sit on the loader's commit path, so they render into a
// fixed buffer; a field outside 0..9999 (year) or 0..99 (month, day)
// falls back to fmt, whose padding rules the buffer form matches.

// DayKey renders the Date-dimension member name for the record's day.
func (r WeatherRecord) DayKey() string {
	if !keyField(r.Year, 9999) || !keyField(r.Month, 99) || !keyField(r.Day, 99) {
		return fmt.Sprintf("%04d-%02d-%02d", r.Year, r.Month, r.Day)
	}
	var b [10]byte
	putDigits(b[0:4], r.Year)
	b[4] = '-'
	putDigits(b[5:7], r.Month)
	b[7] = '-'
	putDigits(b[8:10], r.Day)
	return string(b[:])
}

// MonthKey renders the Date-dimension member name for the record's month.
func (r WeatherRecord) MonthKey() string {
	if !keyField(r.Year, 9999) || !keyField(r.Month, 99) {
		return fmt.Sprintf("%04d-%02d", r.Year, r.Month)
	}
	var b [7]byte
	putDigits(b[0:4], r.Year)
	b[4] = '-'
	putDigits(b[5:7], r.Month)
	return string(b[:])
}

// YearKey renders the Date-dimension member name for the record's year.
func (r WeatherRecord) YearKey() string {
	if !keyField(r.Year, 9999) {
		return fmt.Sprintf("%04d", r.Year)
	}
	var b [4]byte
	putDigits(b[:], r.Year)
	return string(b[:])
}

// keyField reports whether v renders into a fixed-width key field.
func keyField(v, hi int) bool { return v >= 0 && v <= hi }

// putDigits writes v, zero-padded, into all of dst.
func putDigits(dst []byte, v int) {
	for i := len(dst) - 1; i >= 0; i-- {
		dst[i] = byte('0' + v%10)
		v /= 10
	}
}

// Rejection explains why an answer did not become a record.
type Rejection struct {
	Answer qa.Answer
	Reason string
}

// Report summarises one load.
type Report struct {
	Normalized int
	Loaded     int
	Skipped    int // duplicates of already-loaded records
	Rejections []Rejection
}

// String renders a compact summary.
func (r *Report) String() string {
	return fmt.Sprintf("etl: %d normalized, %d loaded, %d duplicates skipped, %d rejected",
		r.Normalized, r.Loaded, r.Skipped, len(r.Rejections))
}

// Loader normalises QA answers and feeds them into a warehouse fact. It
// deduplicates against the warehouse itself: a record whose (city, day,
// source page) a fact row already carries is skipped, so repeated Step 5
// runs are idempotent — across restarts too, since the provenance that
// decides it is part of the warehouse's durable state. A Loader is safe
// for concurrent use; loads are serialised by an internal mutex (the
// parallel harvest in internal/engine extracts concurrently, then
// commits through one Loader).
type Loader struct {
	dom     *ontology.Ontology // axioms; may be nil (built-in fallbacks)
	wh      Warehouse
	fact    string // Weather fact name
	cityDim string // dimension holding the City base level
	dateDim string // dimension holding the Day base level

	mu sync.Mutex
}

// Warehouse is what the loader needs from its OLAP back end: schema
// introspection, the atomic member+rows transaction, the dedup probe
// and parent walks for roll-up invalidation reporting. A single
// *dw.Warehouse satisfies it directly; a sharded cluster satisfies it by
// routing rows and probes to their owning shards (internal/shard).
type Warehouse interface {
	Schema() *mdm.Schema
	AddBatch(specs []dw.MemberSpec, fact string, rows []dw.FactRow) error
	HasSources(fact string, rows []dw.FactRow) ([]bool, error)
	ParentName(dim, level, name string) (string, error)
}

// NewLoader builds a loader for a warehouse whose schema contains the
// weather fact with a City-based role and a Date role.
func NewLoader(dom *ontology.Ontology, wh Warehouse, fact, cityDim, dateDim string) (*Loader, error) {
	if wh == nil {
		return nil, fmt.Errorf("etl: nil warehouse")
	}
	if wh.Schema().Fact(fact) == nil {
		return nil, fmt.Errorf("etl: warehouse has no fact %q", fact)
	}
	for _, dim := range []string{cityDim, dateDim} {
		if wh.Schema().Dimension(dim) == nil {
			return nil, fmt.Errorf("etl: warehouse has no dimension %q", dim)
		}
	}
	return &Loader{dom: dom, wh: wh, fact: fact, cityDim: cityDim, dateDim: dateDim}, nil
}

// Normalize converts one QA answer into a weather record, applying the
// ontology's conversion and range axioms. It returns a reason string when
// the answer must be rejected, which includes an answer without a source
// page: every fed row carries its page.
func (l *Loader) Normalize(ans qa.Answer) (WeatherRecord, string) {
	if !ans.HasValue {
		return WeatherRecord{}, "no numeric value"
	}
	if ans.Location == "" {
		return WeatherRecord{}, "no location"
	}
	if ans.Date.Year == 0 || ans.Date.Month == 0 || ans.Date.Day == 0 {
		return WeatherRecord{}, "incomplete date"
	}
	tempC := ans.Value
	switch strings.ToUpper(ans.Unit) {
	case "C", "ºC", "°C", "":
		// Unitless values are assumed Celsius but validated below; the
		// assumption mirrors the robustness fallback of §4.2.
	case "F", "ºF", "°F":
		tempC = l.convertFtoC(ans.Value)
	default:
		return WeatherRecord{}, "unknown unit " + ans.Unit
	}
	if !l.inRange(tempC) {
		return WeatherRecord{}, fmt.Sprintf("out of range: %.1fC", tempC)
	}
	if ans.URL == "" {
		// The source page is what a re-run feed deduplicates on.
		return WeatherRecord{}, "no source page"
	}
	return WeatherRecord{
		City: CanonicalCity(ans.Location),
		Year: ans.Date.Year, Month: ans.Date.Month, Day: ans.Date.Day,
		TempC: tempC, SourceURL: ans.URL, Score: ans.Score,
	}, ""
}

func (l *Loader) convertFtoC(v float64) float64 {
	if l.dom != nil {
		if c, err := l.dom.Convert("Temperature", v, "F", "C"); err == nil {
			return c
		}
	}
	return (v - 32) / 1.8
}

func (l *Loader) inRange(tempC float64) bool {
	if l.dom != nil {
		if ok, err := l.dom.InRange("Temperature", tempC, "C"); err == nil {
			return ok
		}
	}
	return tempC >= -90 && tempC <= 60
}

// TouchedMember names one dimension member a committed load wrote rows
// under or aggregated into (ancestors included).
type TouchedMember struct {
	Dim   string
	Level string
	Name  string
}

// Touched is the write footprint of one committed load: every dimension
// member a committed row's coordinates name — with the full ancestor
// closure, so a query filtered at a coarser level (Country when rows
// landed under a City) still intersects — plus the facts that gained
// rows. The serving engine turns it into cache-invalidation tags: a
// feed evicts only the cached answers whose dependencies intersect this
// set, instead of flushing everything. Over-reporting is safe (spurious
// evictions); under-reporting would serve stale answers, so the set is
// built from the same member specs the warehouse transaction committed.
type Touched struct {
	Members []TouchedMember
	Facts   []string // facts that gained rows
}

// Empty reports whether the load changed nothing a cached answer could
// depend on (everything deduplicated or rejected).
func (t *Touched) Empty() bool {
	return t == nil || (len(t.Members) == 0 && len(t.Facts) == 0)
}

// Load normalises and loads a batch of QA answers, creating the needed
// Date and City dimension members on the fly. Every loaded fact row
// carries the source URL as provenance.
func (l *Loader) Load(answers []qa.Answer) (*Report, error) {
	reports, _, _, err := l.LoadAll([][]qa.Answer{answers})
	if err != nil {
		return nil, err
	}
	return reports[0], nil
}

// LoadAll normalises and loads a sequence of answer batches (one per
// harvest question) in order, committing all dimension members and fact
// rows in ONE warehouse transaction (dw.AddBatch): either every member
// and every row lands — journalled as a single combined WAL record — or
// nothing does, so a failed feed can no longer strand members without
// their rows. Deduplication is identical to looping Load over the
// batches: within the call and against the warehouse, only the first
// (city, day, source) record loads; later duplicates count as skipped in
// their batch's report. It returns
// one report per batch, the combined report, and the commit's write
// footprint (nil Touched members/facts when nothing new landed).
func (l *Loader) LoadAll(batches [][]qa.Answer) ([]*Report, *Report, *Touched, error) {
	l.mu.Lock()
	defer l.mu.Unlock()

	reports := make([]*Report, len(batches))
	recBatches := make([][]WeatherRecord, len(batches))
	for bi, answers := range batches {
		rep := &Report{}
		reports[bi] = rep
		for _, ans := range answers {
			rec, reason := l.Normalize(ans)
			if reason != "" {
				rep.Rejections = append(rep.Rejections, Rejection{ans, reason})
				continue
			}
			rep.Normalized++
			recBatches[bi] = append(recBatches[bi], rec)
		}
	}
	touched, err := l.commitLocked(recBatches, reports)
	if err != nil {
		return nil, nil, nil, err
	}
	total := &Report{}
	for _, rep := range reports {
		total.Normalized += rep.Normalized
		total.Loaded += rep.Loaded
		total.Skipped += rep.Skipped
		total.Rejections = append(total.Rejections, rep.Rejections...)
	}
	return reports, total, touched, nil
}

// LoadRecords loads a batch of already-normalised records in one atomic
// warehouse transaction — the streaming seeder's commit unit. City names
// are canonicalised (CanonicalCity) so the dedup key and the member name
// agree with every other load path; records with no city or no source
// page are rejected. It returns the batch report and the commit's write footprint.
func (l *Loader) LoadRecords(recs []WeatherRecord) (*Report, *Touched, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	rep := &Report{}
	batch := make([]WeatherRecord, 0, len(recs))
	for _, rec := range recs {
		rec.City = CanonicalCity(rec.City)
		if rec.City == "" {
			rep.Rejections = append(rep.Rejections, Rejection{Reason: "no location"})
			continue
		}
		if rec.SourceURL == "" {
			rep.Rejections = append(rep.Rejections, Rejection{Reason: "no source page"})
			continue
		}
		rep.Normalized++
		batch = append(batch, rec)
	}
	touched, err := l.commitLocked([][]WeatherRecord{batch}, []*Report{rep})
	if err != nil {
		return nil, nil, err
	}
	return rep, touched, nil
}

// commitLocked deduplicates the record batches, commits the needed
// members and fact rows as one warehouse transaction and fills in the
// per-batch Loaded/Skipped counts. Caller holds l.mu. Records are
// assumed canonicalised (Normalize or LoadRecords did it).
func (l *Loader) commitLocked(recBatches [][]WeatherRecord, reports []*Report) (*Touched, error) {
	// Candidate rows: each record's first occurrence in this commit.
	type recKey struct{ city, day, source string }
	type candidate struct {
		batch int
		rec   WeatherRecord
	}
	var cands []candidate
	var rows []dw.FactRow
	inFlight := map[recKey]bool{}
	for bi, recs := range recBatches {
		for _, rec := range recs {
			// The dedup key's city form IS the member name — one
			// canonical form end to end (CanonicalCity), never a
			// case-folded variant of it.
			day := rec.DayKey()
			key := recKey{rec.City, day, rec.SourceURL}
			if inFlight[key] {
				reports[bi].Skipped++
				continue
			}
			inFlight[key] = true
			cands = append(cands, candidate{bi, rec})
			rows = append(rows, dw.FactRow{
				Coords:     map[string]string{"City": rec.City, "Date": day},
				Measures:   map[string]float64{"TempC": rec.TempC},
				Provenance: rec.SourceURL,
			})
		}
	}
	// One probe for the whole commit: which candidates the warehouse
	// already holds with their source.
	var held []bool
	if len(rows) > 0 {
		var err error
		if held, err = l.wh.HasSources(l.fact, rows); err != nil {
			return nil, fmt.Errorf("etl: %w", err)
		}
	}

	var memberSpecs []dw.MemberSpec
	seenMember := map[string]bool{}
	ensureMember := func(dim, level, name, parent string) {
		k := dim + "|" + level + "|" + name
		if !seenMember[k] {
			seenMember[k] = true
			memberSpecs = append(memberSpecs, dw.MemberSpec{Dim: dim, Level: level, Name: name, Parent: parent})
		}
	}
	fresh := rows[:0]
	var loaded []int // batch of each fresh row
	for i, c := range cands {
		if held[i] {
			reports[c.batch].Skipped++
			continue
		}
		// Date hierarchy and city members (idempotent adds, parents
		// first so the batch insert can resolve them).
		rec := c.rec
		ensureMember(l.dateDim, "Year", rec.YearKey(), "")
		ensureMember(l.dateDim, "Month", rec.MonthKey(), rec.YearKey())
		ensureMember(l.dateDim, "Day", rows[i].Coords["Date"], rec.MonthKey())
		ensureMember(l.cityDim, "City", rec.City, "")
		fresh = append(fresh, rows[i])
		loaded = append(loaded, c.batch)
	}

	// One transaction: members and rows land together or not at all. A
	// commit whose records all dedupe journals nothing.
	if err := l.wh.AddBatch(memberSpecs, l.fact, fresh); err != nil {
		return nil, fmt.Errorf("etl: %w", err)
	}
	for _, bi := range loaded {
		reports[bi].Loaded++
	}
	return l.touchedFrom(memberSpecs, len(fresh)), nil
}

// touchedFrom expands the committed member specs into the full touch
// set: each spec'd member plus its ancestor chain up the dimension
// hierarchy (the Date specs carry their own Year/Month parents; City
// members need the walk to reach their Country, so Country-level
// filters see the touch).
func (l *Loader) touchedFrom(specs []dw.MemberSpec, rowsLoaded int) *Touched {
	t := &Touched{}
	if len(specs) == 0 && rowsLoaded == 0 {
		return t
	}
	seen := map[TouchedMember]bool{}
	add := func(m TouchedMember) bool {
		if seen[m] {
			return false
		}
		seen[m] = true
		t.Members = append(t.Members, m)
		return true
	}
	for _, s := range specs {
		add(TouchedMember{Dim: s.Dim, Level: s.Level, Name: s.Name})
		dim := l.wh.Schema().Dimension(s.Dim)
		if dim == nil {
			continue
		}
		level, name := s.Level, s.Name
		for {
			lvl := dim.Level(level)
			if lvl == nil || lvl.RollsUpTo == "" {
				break
			}
			parent, err := l.wh.ParentName(s.Dim, level, name)
			if err != nil || parent == "" {
				break
			}
			level, name = lvl.RollsUpTo, parent
			if !add(TouchedMember{Dim: s.Dim, Level: level, Name: name}) {
				break // ancestors of a seen member are already in
			}
		}
	}
	if rowsLoaded > 0 {
		t.Facts = append(t.Facts, l.fact)
	}
	return t
}
