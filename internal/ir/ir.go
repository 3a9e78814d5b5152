// Package ir implements the passage retrieval substrate of the
// reproduction, modelled on the IR-n system (reference [9] of the paper)
// that AliQAn uses to filter the quantity of text the QA process analyses.
//
// IR-n's defining property is reproduced: documents are split into
// passages formed by a fixed number of consecutive sentences (the paper's
// footnote 6: "the IR-n system ... returns the most relevant passage
// formed by eight consecutive sentences"), windows overlap, and passages
// are ranked by query-term weights. A document-level retrieval mode serves
// as the classical-IR baseline for the QA-vs-IR experiment: it returns
// whole documents, which is exactly the shortcoming the paper attributes
// to IR systems.
//
// Retrieval cost scales with the matched postings, not the index size:
// terms are interned into a dense dictionary (lemma → int32 term id,
// append-only — an id, once assigned, is never reused or remapped), the
// delta/varint compressed posting lists (postlist.go) are indexed by
// term id, and query scores accumulate in pooled epoch-stamped sparse
// accumulators through one scoring kernel (sparse.go) that Search,
// SearchDocuments and SearchWeighted share. The previous dense
// O(index)-per-query engines, SearchReference and
// SearchDocumentsReference, live in the package's test files as the
// oracle the kernel is proven against and the baseline the scaling
// benchmarks measure.
package ir

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"dwqa/internal/nlp"
)

// DefaultPassageSize is the number of consecutive sentences per passage.
const DefaultPassageSize = 8

// Document is an indexable unit of text with provenance. Ord is the
// document's global ordinal in a sharded deployment: the position it held
// in the corpus-wide ingest order before routing scattered documents
// across per-shard indexes. Cross-shard result merging tie-breaks on it
// to reproduce the single-index insertion order exactly. Single-index
// deployments leave it zero (ties then fall back to local order, which
// IS the global order).
type Document struct {
	URL  string
	Text string
	Ord  int64
}

// Passage is a retrieval result: a window of consecutive sentences from
// one document.
type Passage struct {
	DocURL    string
	DocIndex  int
	DocOrd    int64 // the document's global ordinal (Document.Ord)
	SentStart int   // first sentence index in the document
	SentEnd   int   // one past the last sentence index
	Text      string
	Score     float64
	Sentences []nlp.Sentence // analysed sentences of the window
}

// DocResult is a document-level retrieval result (the IR baseline mode).
type DocResult struct {
	URL      string
	DocIndex int
	Score    float64
	Text     string
}

// Posting records one passage (or document, in the document-level lists)
// containing a term, with its term frequency. It is the logical element
// of a posting list; the stored form is delta/varint compressed
// (postlist.go), and the wire form the durability snapshot moves is
// PostingList.
type Posting struct {
	ID int32 // passage id, or document index in docPostings
	TF int32
}

// passageEntry is the stored form of a passage.
type passageEntry struct {
	doc       int
	sentStart int
	sentEnd   int
}

// docSlot holds one document's analysed sentences in their one form: the
// wire token block against the index's intern tables, encoded once by
// Add or adopted by Import, and handed out verbatim by Export. Every read
// decodes the window it needs (decodeTokenWindow) without keeping it. A
// slot is immutable after construction, which makes concurrent readers
// under the index read lock safe.
type docSlot struct {
	block  []byte
	nSents int32
	nToks  int32
}

// Index is an inverted passage index. Safe for concurrent searches after
// construction; adding documents takes the write lock.
type Index struct {
	passageSize int
	stride      int

	mu       sync.RWMutex
	docs     []Document
	docSents []docSlot
	passages []passageEntry
	// byURL maps a document URL to its first index in docs — the
	// idempotency probe (HasURL) the streaming seeder uses to skip pages
	// that already survived a crash.
	byURL map[string]int

	// tokTags / tokLemmas are the token blocks' tag and lemma intern
	// tables, extended in first-occurrence order as documents are
	// installed (append-only, so every stored block stays valid);
	// tagIdx / lemmaIdx map an entry back to its position.
	tokTags   []string
	tokLemmas []string
	tagIdx    map[string]int
	lemmaIdx  map[string]int

	// terms is the interned term dictionary: lemma → dense term id.
	// Ids are append-only — assigned in first-occurrence order and never
	// reused — so the per-term slices below stay valid forever.
	terms       map[string]int32
	postings    []postingList // term id → passages containing it, ascending
	docPostings []postingList // term id → documents containing it, ascending

	// Install scratch, reused under the write lock: the token block
	// encode buffer, and term frequencies by term id (zero between uses)
	// with the ids touched, in first-touch order.
	encBuf  []byte
	tf      []int32
	touched []int32

	// journal, when set, receives every indexed document while the write
	// lock is still held (see SetJournal in snapshot.go).
	journal Journal
}

// Option configures an Index.
type Option func(*Index)

// WithPassageSize sets the sentence-window size (minimum 1).
func WithPassageSize(n int) Option {
	return func(ix *Index) {
		if n >= 1 {
			ix.passageSize = n
		}
	}
}

// WithStride sets the window stride; smaller strides mean more overlap.
func WithStride(n int) Option {
	return func(ix *Index) {
		if n >= 1 {
			ix.stride = n
		}
	}
}

// NewIndex returns an empty index with the given options. The default
// window is 8 sentences with a half-window stride.
func NewIndex(opts ...Option) *Index {
	ix := &Index{
		passageSize: DefaultPassageSize,
		terms:       make(map[string]int32),
		byURL:       make(map[string]int),
		tagIdx:      make(map[string]int),
		lemmaIdx:    make(map[string]int),
	}
	for _, o := range opts {
		o(ix)
	}
	if ix.stride == 0 {
		ix.stride = ix.passageSize / 2
		if ix.stride == 0 {
			ix.stride = 1
		}
	}
	// A stride beyond the window would leave sentences uncovered.
	if ix.stride > ix.passageSize {
		ix.stride = ix.passageSize
	}
	return ix
}

// intern returns the dense id of a lemma, assigning the next id on first
// sight. Caller holds the write lock.
func (ix *Index) intern(lemma string) int32 {
	if id, ok := ix.terms[lemma]; ok {
		return id
	}
	id := int32(len(ix.postings))
	ix.terms[lemma] = id
	ix.postings = append(ix.postings, postingList{})
	ix.docPostings = append(ix.docPostings, postingList{})
	return id
}

// sentencesLocked decodes sentences [from, to) of document d from its
// token block. Caller holds at least the read lock.
func (ix *Index) sentencesLocked(d, from, to int) []nlp.Sentence {
	s := &ix.docSents[d]
	return decodeTokenWindow(s.block, ix.docs[d].Text, from, to, int(s.nSents), int(s.nToks), ix.tokTags, ix.tokLemmas)
}

// Batch is a document batch analysed by AnalyseBatch and not yet
// installed: per document, its sentences and each sentence's content
// lemmas. Analysis touches no index state, so a batch can be prepared
// while another commits; Add installs it.
type Batch struct {
	docs   []Document
	sents  [][]nlp.Sentence
	lemmas [][][]string // document → sentence → content lemmas, in text order
}

// AnalyseBatch validates and analyses documents — sentence split,
// tagging, lemmatisation, stopword removal — fanning the documents out
// over runtime.GOMAXPROCS(0) workers (a one-document batch runs inline).
// An empty or sentence-less document fails the whole batch; the error
// names the lowest failing document index, as a serial loop would.
func AnalyseBatch(docs []Document) (*Batch, error) {
	b := &Batch{
		docs:   docs,
		sents:  make([][]nlp.Sentence, len(docs)),
		lemmas: make([][][]string, len(docs)),
	}
	err := parallelFor(len(docs), func(i int) error {
		d := docs[i]
		if strings.TrimSpace(d.Text) == "" {
			return fmt.Errorf("ir: batch document %d: empty document %q", i, d.URL)
		}
		sents := nlp.SplitSentences(d.Text)
		if len(sents) == 0 {
			return fmt.Errorf("ir: batch document %d: no sentences in document %q", i, d.URL)
		}
		lemmas := make([][]string, len(sents))
		for j, s := range sents {
			lemmas[j] = s.ContentLemmas()
		}
		b.sents[i], b.lemmas[i] = sents, lemmas
		return nil
	})
	if err != nil {
		return nil, err
	}
	return b, nil
}

// parallelFor calls fn(i) for every i in [0, n) on up to
// runtime.GOMAXPROCS(0) goroutines, waits for all of them, and returns
// the error of the lowest failing i. With one index or one processor it
// runs inline.
func parallelFor(n int, fn func(i int) error) error {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Add installs an analysed batch as one write-lock acquisition and one
// journal record (Journal.LogDocuments — one fsync however large the
// batch). With AnalyseBatch it is the index's only write path.
func (ix *Index) Add(b *Batch) error {
	if len(b.docs) == 0 {
		return nil
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for i, d := range b.docs {
		ix.addLocked(d, b.sents[i], b.lemmas[i])
	}
	if ix.journal != nil {
		if err := ix.journal.LogDocuments(b.docs); err != nil {
			return fmt.Errorf("ir: journal: %w", err)
		}
	}
	return nil
}

// AddBatch indexes a batch of documents: AnalyseBatch, then Add. Every
// document is analysed before the first one is installed, so an empty or
// sentence-less document rejects the whole batch with the index
// untouched; this is the commit unit of feeds, WAL replay and the
// streaming seeder.
func (ix *Index) AddBatch(docs []Document) error {
	b, err := AnalyseBatch(docs)
	if err != nil {
		return err
	}
	return ix.Add(b)
}

// addLocked installs one analysed document: its token block, encoded
// once here against the index-wide intern tables, and its postings.
// Caller holds the write lock.
func (ix *Index) addLocked(doc Document, sents []nlp.Sentence, lemmas [][]string) {
	docIdx := len(ix.docs)
	ix.docs = append(ix.docs, doc)
	var nToks int
	ix.encBuf, nToks = encodeTokenBlock(ix.encBuf[:0], sents, ix.tagIdx, &ix.tokTags, ix.lemmaIdx, &ix.tokLemmas)
	ix.docSents = append(ix.docSents, docSlot{block: append([]byte(nil), ix.encBuf...), nSents: int32(len(sents)), nToks: int32(nToks)})
	if _, ok := ix.byURL[doc.URL]; !ok {
		ix.byURL[doc.URL] = docIdx
	}

	// Intern each sentence's content lemmas once (in text order, so term
	// ids are deterministic); the document stats and every overlapping
	// window reuse the id slices instead of re-deriving lemmas.
	sentTerms := make([][]int32, len(sents))
	for i, ls := range lemmas {
		ids := make([]int32, len(ls))
		for j, lemma := range ls {
			ids[j] = ix.intern(lemma)
		}
		sentTerms[i] = ids
	}
	ix.tf = append(ix.tf, make([]int32, len(ix.postings)-len(ix.tf))...)

	// Document-level stats for the IR baseline. Documents are indexed one
	// at a time, so each per-term list receives ascending document
	// indexes whatever order the terms are emitted in.
	ix.flushTF(ix.docPostings, sentTerms, int32(docIdx))

	// Passage windows.
	for start := 0; start < len(sents); start += ix.stride {
		end := start + ix.passageSize
		if end > len(sents) {
			end = len(sents)
		}
		pid := len(ix.passages)
		ix.passages = append(ix.passages, passageEntry{
			doc: docIdx, sentStart: start, sentEnd: end,
		})
		ix.flushTF(ix.postings, sentTerms[start:end], int32(pid))
		if end == len(sents) {
			break
		}
	}
}

// flushTF counts the term frequencies of sentTerms in the dense scratch
// and appends one posting (id, tf) per distinct term to lists, in
// first-touch order, leaving the scratch zeroed. Caller holds the write
// lock and has sized ix.tf to the dictionary.
func (ix *Index) flushTF(lists []postingList, sentTerms [][]int32, id int32) {
	for _, ids := range sentTerms {
		for _, t := range ids {
			if ix.tf[t] == 0 {
				ix.touched = append(ix.touched, t)
			}
			ix.tf[t]++
		}
	}
	for _, t := range ix.touched {
		lists[t].add(id, ix.tf[t])
		ix.tf[t] = 0
	}
	ix.touched = ix.touched[:0]
}

// HasURL reports whether a document with this URL is already indexed —
// the seeder's resume probe: a page whose WAL record survived the crash
// is skipped instead of re-indexed.
func (ix *Index) HasURL(url string) bool {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	_, ok := ix.byURL[url]
	return ok
}

// DocCount returns the number of indexed documents.
func (ix *Index) DocCount() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.docs)
}

// PassageCount returns the number of indexed passages.
func (ix *Index) PassageCount() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.passages)
}

// TermCount returns the number of distinct interned terms.
func (ix *Index) TermCount() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.terms)
}

// DF returns the number of documents containing the lemma.
func (ix *Index) DF(lemma string) int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	id, ok := ix.terms[lemma]
	if !ok {
		return 0
	}
	return ix.docPostings[id].count()
}

// QueryTerms analyses free text into content lemmas for retrieval —
// stop-words are discarded, matching the paper's description of the IR
// side ("IR usually receives just a set of keywords ... discarding
// stop-words"). It is the single normalisation point of the query path:
// terms come out lowercased and deduplicated, which is the form Search
// and SearchDocuments expect. Analysis only reads the nlp intern pool
// (nlp.AnalyzeQuery), so arbitrary query text cannot grow it.
func QueryTerms(text string) []string {
	var out []string
	seen := map[string]bool{}
	for _, t := range nlp.AnalyzeQuery(text) {
		if t.IsContentWord() && !nlp.IsStopword(t.Lemma) && !seen[t.Lemma] {
			seen[t.Lemma] = true
			out = append(out, t.Lemma)
		}
	}
	return out
}

// Search returns the top-k passages for the query terms, ranked by the
// IR-n style weight sum((1+log tf) * idf), idf = log(1 + N/df) over the
// passage store. Deterministic: ties break by document then passage
// position. Terms must be normalised (lowercase, deduplicated) as
// QueryTerms and the QA question analysis produce them; Search itself
// does no lowercasing or deduplication.
//
// Search is SearchWeighted with the index's own statistics: the idf
// vector comes from GlobalIDF over the passage store's document
// frequencies, taken under the same read lock, so a sharded coordinator
// that sums those statistics and imposes the result scores every passage
// bit for bit as one index would. Scores accumulate through the scoring
// kernel (accumulateLocked) in a pooled epoch-stamped sparse
// accumulator: only passages that actually match a term are touched, so
// a query costs O(matched postings + matches·log k) with zero per-query
// allocation proportional to the index — the property that keeps
// cold-path retrieval sublinear in corpus size (see PERF.md "Sparse
// retrieval"). Ranking and scores are byte-identical to the dense
// reference oracle the tests keep.
func (ix *Index) Search(terms []string, k int) []Passage {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if len(ix.passages) == 0 || len(terms) == 0 || k <= 0 {
		return nil
	}
	return ix.searchWeightedLocked(terms, GlobalIDF(len(ix.passages), ix.dfLocked(ix.postings, terms)), k)
}

// searchWeightedLocked scores the passage postings of each term with its
// imposed idf weight and materialises the top k. Caller holds the read
// lock and has rejected the empty cases.
func (ix *Index) searchWeightedLocked(terms []string, idf []float64, k int) []Passage {
	acc := getAcc(len(ix.passages))
	defer putAcc(acc)
	ix.accumulateLocked(acc, ix.postings, terms, idf)
	ids := acc.rank(k)
	out := make([]Passage, 0, len(ids))
	for _, id := range ids {
		out = append(out, ix.materializeLocked(int(id), acc.scores[id]))
	}
	return out
}

// materializeLocked builds the Passage value for a passage ID.
func (ix *Index) materializeLocked(id int, score float64) Passage {
	pe := ix.passages[id]
	sents := ix.sentencesLocked(pe.doc, pe.sentStart, pe.sentEnd)
	doc := ix.docs[pe.doc]
	start := sents[0].Start
	end := sents[len(sents)-1].End
	return Passage{
		DocURL:    doc.URL,
		DocIndex:  pe.doc,
		DocOrd:    doc.Ord,
		SentStart: pe.sentStart,
		SentEnd:   pe.sentEnd,
		Text:      doc.Text[start:end],
		Score:     score,
		Sentences: sents,
	}
}

// SearchDocuments is the classical-IR baseline: rank whole documents by
// tf-idf and return them in full. The caller (a user, per the paper) "has
// to further search for the requested information" inside them. Like
// Search it expects normalised terms and scores sparsely over the
// document posting lists through the same kernel, with idf derived by
// GlobalIDF over the document store.
func (ix *Index) SearchDocuments(terms []string, k int) []DocResult {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if len(ix.docs) == 0 || len(terms) == 0 || k <= 0 {
		return nil
	}
	acc := getAcc(len(ix.docs))
	defer putAcc(acc)
	ix.accumulateLocked(acc, ix.docPostings, terms, GlobalIDF(len(ix.docs), ix.dfLocked(ix.docPostings, terms)))
	ids := acc.rank(k)
	out := make([]DocResult, 0, len(ids))
	for _, id := range ids {
		out = append(out, DocResult{
			URL: ix.docs[id].URL, DocIndex: int(id),
			Score: acc.scores[id], Text: ix.docs[id].Text,
		})
	}
	return out
}

// AllPassages materializes every passage (score zero) — used by the
// QA-without-IR-filter ablation, which must analyse the whole collection.
func (ix *Index) AllPassages() []Passage {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	out := make([]Passage, 0, len(ix.passages))
	for id := range ix.passages {
		out = append(out, ix.materializeLocked(id, 0))
	}
	return out
}

// Document returns the indexed document at the given index.
func (ix *Index) Document(i int) (Document, error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if i < 0 || i >= len(ix.docs) {
		return Document{}, fmt.Errorf("ir: document index %d out of range", i)
	}
	return ix.docs[i], nil
}
