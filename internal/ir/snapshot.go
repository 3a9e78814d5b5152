package ir

import "fmt"

// This file is the retrieval half of the durability subsystem
// (internal/store): bulk export and import of the inverted index —
// documents, analysed sentences (as wire token blocks), passage windows,
// the interned term dictionary and both posting stores (in compressed
// wire form) — plus the redo-journal hook that records indexed
// documents.

// PassageRef is the exported form of one passage window.
type PassageRef struct {
	Doc       int32
	SentStart int32
	SentEnd   int32
}

// Snapshot is a point-in-time copy of the index. Terms[i] is the lemma
// interned as term id i — the append-only id invariant means a snapshot
// restored and then grown by replayed Adds assigns exactly the ids the
// uninterrupted run would have. Produced by Export, consumed by Import;
// internal/store gives it a binary encoding.
//
// Sentences and postings travel in wire form: DocTokens holds each
// document's framed token block (tokcodec.go) against the TokTags /
// TokLemmas intern tables, and the posting lists are delta/varint
// encoded (PostingList). Both forms are canonical — a pure function of
// the logical content — so exports of equivalent indexes are
// byte-identical however the indexes were built, and the store can
// persist the bytes verbatim. Import installs them without re-encoding:
// postings are adopted as-is and token blocks stay in wire form, each
// read decoding the passage window it needs.
type Snapshot struct {
	PassageSize int
	Stride      int
	Docs        []Document
	TokTags     []string // token tag intern table, first-occurrence order
	TokLemmas   []string // token lemma intern table, first-occurrence order
	DocTokens   [][]byte // per-document wire token blocks
	DocSents    []int32  // sentences per document
	DocToks     []int32  // tokens per document
	Passages    []PassageRef
	Terms       []string      // term id → lemma
	Postings    []PostingList // term id → passage postings, ascending ids
	DocPostings []PostingList // term id → document postings, ascending ids
}

// Export copies the full index state under the read lock. Posting lists
// are canonicalised into their wire form; token blocks, stored in wire
// form since install or import, are handed out verbatim (they are
// immutable) with a copy of the intern tables they index.
func (ix *Index) Export() *Snapshot {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	snap := &Snapshot{
		PassageSize: ix.passageSize,
		Stride:      ix.stride,
		Docs:        append([]Document(nil), ix.docs...),
		TokTags:     append([]string(nil), ix.tokTags...),
		TokLemmas:   append([]string(nil), ix.tokLemmas...),
		DocTokens:   make([][]byte, len(ix.docSents)),
		DocSents:    make([]int32, len(ix.docSents)),
		DocToks:     make([]int32, len(ix.docSents)),
		Passages:    make([]PassageRef, len(ix.passages)),
		Terms:       make([]string, len(ix.terms)),
		Postings:    make([]PostingList, len(ix.postings)),
		DocPostings: make([]PostingList, len(ix.docPostings)),
	}
	for i, slot := range ix.docSents {
		snap.DocTokens[i] = slot.block
		snap.DocSents[i] = slot.nSents
		snap.DocToks[i] = slot.nToks
	}
	for i, pe := range ix.passages {
		snap.Passages[i] = PassageRef{Doc: int32(pe.doc), SentStart: int32(pe.sentStart), SentEnd: int32(pe.sentEnd)}
	}
	for lemma, id := range ix.terms {
		snap.Terms[id] = lemma
	}
	for i := range ix.postings {
		snap.Postings[i] = ix.postings[i].export()
	}
	for i := range ix.docPostings {
		snap.DocPostings[i] = ix.docPostings[i].export()
	}
	return snap
}

// Import restores a snapshot into an empty index as a bulk load: posting
// lists are adopted in their wire form (validated, never re-encoded),
// passage windows are installed wholesale, and each document's token
// block is kept as-is — structurally validated here, then decoded one
// passage window at a time by the reads that need it (sentencesLocked). The
// term dictionary map is rebuilt in a single pass over Terms. Window
// geometry (passage size, stride) is taken from the snapshot, overriding
// any NewIndex options, because it describes the windows already built.
// Shape mismatches fail loudly before anything is installed. The
// snapshot's byte slices are shared, not copied — the caller must not
// mutate the snapshot afterwards (recovery decodes a fresh one).
func (ix *Index) Import(snap *Snapshot) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if len(ix.docs) != 0 || len(ix.terms) != 0 {
		return fmt.Errorf("ir: import into a non-empty index")
	}
	if snap.PassageSize < 1 || snap.Stride < 1 || snap.Stride > snap.PassageSize {
		return fmt.Errorf("ir: import: invalid window geometry (size %d, stride %d)", snap.PassageSize, snap.Stride)
	}
	if len(snap.DocTokens) != len(snap.Docs) || len(snap.DocSents) != len(snap.Docs) || len(snap.DocToks) != len(snap.Docs) {
		return fmt.Errorf("ir: import: %d documents but %d/%d/%d token blocks/sentence counts/token counts",
			len(snap.Docs), len(snap.DocTokens), len(snap.DocSents), len(snap.DocToks))
	}
	if len(snap.Postings) != len(snap.Terms) || len(snap.DocPostings) != len(snap.Terms) {
		return fmt.Errorf("ir: import: %d terms but %d/%d posting lists",
			len(snap.Terms), len(snap.Postings), len(snap.DocPostings))
	}
	for i, pe := range snap.Passages {
		if int(pe.Doc) < 0 || int(pe.Doc) >= len(snap.Docs) {
			return fmt.Errorf("ir: import: passage %d references document %d of %d", i, pe.Doc, len(snap.Docs))
		}
		nSents := snap.DocSents[pe.Doc]
		if pe.SentStart < 0 || pe.SentEnd <= pe.SentStart || pe.SentEnd > nSents {
			return fmt.Errorf("ir: import: passage %d window [%d:%d) out of range (document %d has %d sentences)",
				i, pe.SentStart, pe.SentEnd, pe.Doc, nSents)
		}
	}
	terms := make(map[string]int32, len(snap.Terms))
	for id, lemma := range snap.Terms {
		if _, dup := terms[lemma]; dup {
			return fmt.Errorf("ir: import: duplicate term %q in dictionary", lemma)
		}
		terms[lemma] = int32(id)
	}
	checkLists := func(kind string, lists []PostingList, limit int) ([]int32, error) {
		lastIDs := make([]int32, len(lists))
		for id, w := range lists {
			last, err := checkWirePostings(w, limit)
			if err != nil {
				return nil, fmt.Errorf("ir: import: term %d %s postings: %w", id, kind, err)
			}
			lastIDs[id] = last
		}
		return lastIDs, nil
	}
	passLast, err := checkLists("passage", snap.Postings, len(snap.Passages))
	if err != nil {
		return err
	}
	docLast, err := checkLists("document", snap.DocPostings, len(snap.Docs))
	if err != nil {
		return err
	}
	if err := ix.validateBlocks(snap); err != nil {
		return err
	}

	ix.passageSize = snap.PassageSize
	ix.stride = snap.Stride
	ix.docs = append([]Document(nil), snap.Docs...)
	ix.byURL = make(map[string]int, len(snap.Docs))
	for i, d := range snap.Docs {
		if _, ok := ix.byURL[d.URL]; !ok {
			ix.byURL[d.URL] = i
		}
	}
	// The intern tables are clamped so that documents added after the
	// restore extend a copy instead of writing into the caller's snapshot.
	ix.tokTags = snap.TokTags[:len(snap.TokTags):len(snap.TokTags)]
	ix.tokLemmas = snap.TokLemmas[:len(snap.TokLemmas):len(snap.TokLemmas)]
	ix.tagIdx = internIndex(ix.tokTags)
	ix.lemmaIdx = internIndex(ix.tokLemmas)
	ix.docSents = make([]docSlot, len(snap.Docs))
	for i := range ix.docSents {
		ix.docSents[i] = docSlot{block: snap.DocTokens[i], nSents: snap.DocSents[i], nToks: snap.DocToks[i]}
	}
	ix.passages = make([]passageEntry, len(snap.Passages))
	for i, pe := range snap.Passages {
		ix.passages[i] = passageEntry{
			doc: int(pe.Doc), sentStart: int(pe.SentStart), sentEnd: int(pe.SentEnd),
		}
	}
	ix.terms = terms
	// Capacity is clamped so a later AddBatch's flush reallocates instead of
	// growing in place into the snapshot buffer (whose tail bytes other
	// lists alias when the store hands us slices of one file image).
	ix.postings = make([]postingList, len(snap.Postings))
	for i, w := range snap.Postings {
		ix.postings[i] = postingList{enc: w.Enc[:len(w.Enc):len(w.Enc)], encN: w.N, lastID: passLast[i]}
	}
	ix.docPostings = make([]postingList, len(snap.DocPostings))
	for i, w := range snap.DocPostings {
		ix.docPostings[i] = postingList{enc: w.Enc[:len(w.Enc):len(w.Enc)], encN: w.N, lastID: docLast[i]}
	}
	return nil
}

// internIndex maps each entry of an intern table to its first position.
func internIndex(table []string) map[string]int {
	m := make(map[string]int, len(table))
	for i, v := range table {
		if _, ok := m[v]; !ok {
			m[v] = i
		}
	}
	return m
}

// validateBlocks structurally checks every document's token block in
// parallel — the pass that lets sentencesLocked decode windows without
// an error path. It is the bulk of import-time CPU, but still an order of
// magnitude cheaper than materialising every token eagerly.
func (ix *Index) validateBlocks(snap *Snapshot) error {
	return parallelFor(len(snap.Docs), func(d int) error {
		err := validateTokenBlock(snap.DocTokens[d], len(snap.Docs[d].Text),
			int(snap.DocSents[d]), int(snap.DocToks[d]), len(snap.TokTags), len(snap.TokLemmas))
		if err != nil {
			return fmt.Errorf("ir: import: document %q: %w", snap.Docs[d].URL, err)
		}
		return nil
	})
}

// Journal receives every successfully indexed batch — the redo log of
// the durability subsystem (internal/store). Replaying the batches in log
// order on top of a restored snapshot reproduces the exact index state,
// including term ids (the dictionary is append-only in first-occurrence
// order).
type Journal interface {
	// LogDocuments records one Add commit as a single log record —
	// one fsync per batch instead of per document.
	LogDocuments(docs []Document) error
}

// SetJournal installs (or, with nil, removes) the redo journal. Add
// is the index's only write, so each subsequent batch is logged — one
// LogDocuments call — under the write lock after its documents are fully
// indexed: the log preserves indexing order and only acked documents
// appear in it. Recovery must attach the journal only after WAL replay.
func (ix *Index) SetJournal(j Journal) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.journal = j
}
