package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"sort"

	"dwqa/internal/dw"
	"dwqa/internal/ir"
	"dwqa/internal/ontology"
)

// Snapshot file layout (self-describing, versioned, checksummed):
//
//	magic    "DWQASNAP"            8 bytes
//	version  uvarint               readers reject any other
//	sections 3 × u64 LE            absolute offsets of the dw/ir/onto
//	                               sections — a fixed-offset table, so a
//	                               reader can seek straight to a section
//	                               without parsing the ones before it
//	walSeq   uvarint               last WAL record the snapshot covers
//	dw       section               warehouse members + fact columns
//	ir       section               docs, token blocks, passages,
//	                               dictionary, compressed postings
//	onto     section               merged ontology incl. axioms
//	crc32c   4 bytes LE            Castagnoli checksum of all prior bytes
//
// Files are written to a temp name and renamed into place, so a crash
// mid-write never leaves a live snapshot truncated — and if it somehow
// did, the checksum catches it and recovery falls back to the previous
// snapshot.

const (
	snapshotMagic = "DWQASNAP"
	// SchemaVersion is the snapshot format version this build writes and
	// the only one it reads. v4 stores fact provenance as a dictionary of
	// distinct sources plus one int32 code per row, replacing v3's
	// per-row strings; v3 stores posting lists in their compressed
	// delta/varint wire form (installed at restore without re-encoding)
	// and adds the fixed-offset section table; v2 added the per-document
	// global ordinal (ir.Document.Ord) that sharded deployments
	// merge-sort on. Older snapshots are rejected with an error naming
	// both versions: rebuild the data directory from its source.
	SchemaVersion = 4

	// sectionCount is the number of entries in the section table.
	sectionCount = 3
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// State is the full persistent state of the engine stack: the warehouse
// contents, the passage index and the merged ontology, stamped with the
// WAL sequence they cover. Recovery = load State + replay WAL records
// with seq > WALSeq. Fingerprint is an opaque caller-owned string (the
// pipeline stores its scenario parameters there) checked at recovery so
// state from one configuration is never silently grafted onto another.
type State struct {
	WALSeq      uint64
	Fingerprint string
	DW          *dw.Snapshot
	IR          *ir.Snapshot
	Onto        *ontology.Snapshot
}

// EncodeState renders a State into the snapshot file format. The section
// table is reserved up front and patched once the section offsets are
// known.
func EncodeState(st *State) []byte {
	w := &writer{buf: make([]byte, 0, sizeHint(st))}
	w.buf = append(w.buf, snapshotMagic...)
	w.uvarint(SchemaVersion)
	table := len(w.buf)
	w.buf = append(w.buf, make([]byte, 8*sectionCount)...)
	w.uvarint(st.WALSeq)
	w.str(st.Fingerprint)
	var offs [sectionCount]uint64
	offs[0] = uint64(len(w.buf))
	encodeDW(w, st.DW)
	offs[1] = uint64(len(w.buf))
	encodeIR(w, st.IR)
	offs[2] = uint64(len(w.buf))
	encodeOnto(w, st.Onto)
	for i, off := range offs {
		binary.LittleEndian.PutUint64(w.buf[table+8*i:], off)
	}
	w.buf = appendCRC(w.buf)
	return w.buf
}

// sizeHint bounds the encoded size of a state: the bulk — document
// texts, token blocks, posting lists, fact columns, the provenance
// dictionary — exactly,
// plus a full-width varint for every length or count framing it. Encoding
// into one buffer of that capacity spares a large image the chain of
// re-grown copies an append-grown buffer leaves behind, which at 100k
// passages allocated over twice the image's size and set the seeder's
// peak memory. The small, nested ontology section rides in the slack.
func sizeHint(st *State) int {
	const v = binary.MaxVarintLen64
	n := 1<<16 + len(st.Fingerprint)
	if s := st.DW; s != nil {
		for _, ds := range s.Dims {
			for _, ls := range ds.Levels {
				for _, m := range ls.Members {
					n += 3*v + len(m.Name)
					for k, val := range m.Attrs {
						n += 2*v + len(k) + len(val)
					}
				}
			}
		}
		for _, fs := range s.Facts {
			for _, col := range fs.Coords {
				n += v + 4*len(col)
			}
			for _, col := range fs.Measures {
				n += v + 8*len(col)
			}
			n += v + 4*len(fs.SourceCodes)
			for _, src := range fs.Sources {
				n += v + len(src)
			}
		}
	}
	if s := st.IR; s != nil {
		for i, d := range s.Docs {
			n += 6*v + len(d.URL) + len(d.Text) + len(s.DocTokens[i])
		}
		n += 3 * v * len(s.Passages)
		for _, strs := range [][]string{s.TokTags, s.TokLemmas, s.Terms} {
			for _, t := range strs {
				n += v + len(t)
			}
		}
		for _, lists := range [][]ir.PostingList{s.Postings, s.DocPostings} {
			for _, pl := range lists {
				n += 2*v + len(pl.Enc)
			}
		}
	}
	return n
}

func appendCRC(buf []byte) []byte {
	sum := crc32.Checksum(buf, crcTable)
	return append(buf, byte(sum), byte(sum>>8), byte(sum>>16), byte(sum>>24))
}

// DecodeState parses and validates a snapshot file image: magic, version
// gate, checksum, then the three sections. Every failure is loud and
// names what broke.
func DecodeState(buf []byte) (*State, error) {
	if len(buf) < len(snapshotMagic)+4 {
		return nil, fmt.Errorf("store: snapshot too short (%d bytes)", len(buf))
	}
	if string(buf[:len(snapshotMagic)]) != snapshotMagic {
		return nil, fmt.Errorf("store: bad snapshot magic %q", buf[:len(snapshotMagic)])
	}
	body, tail := buf[:len(buf)-4], buf[len(buf)-4:]
	want := uint32(tail[0]) | uint32(tail[1])<<8 | uint32(tail[2])<<16 | uint32(tail[3])<<24
	if got := crc32.Checksum(body, crcTable); got != want {
		return nil, fmt.Errorf("store: snapshot checksum mismatch (got %08x, want %08x)", got, want)
	}
	r := &reader{buf: body, off: len(snapshotMagic)}
	version := r.uvarint()
	if r.err != nil {
		return nil, r.err
	}
	if version > SchemaVersion {
		return nil, fmt.Errorf("store: snapshot schema v%d is newer than supported v%d (upgrade dwqa to read it)",
			version, SchemaVersion)
	}
	if version < SchemaVersion {
		return nil, fmt.Errorf("store: snapshot schema v%d is older than supported v%d (rebuild the data directory with this dwqa)",
			version, SchemaVersion)
	}
	if r.remaining() < 8*sectionCount {
		return nil, fmt.Errorf("store: snapshot truncated inside section table")
	}
	var offs [sectionCount]uint64
	for i := range offs {
		offs[i] = binary.LittleEndian.Uint64(body[r.off+8*i:])
	}
	r.off += 8 * sectionCount
	prev := uint64(r.off)
	for i, off := range offs {
		if off < prev || off > uint64(len(body)) {
			return nil, fmt.Errorf("store: section table entry %d offset %d out of order (body %d bytes)", i, off, len(body))
		}
		prev = off
	}
	st := &State{WALSeq: r.uvarint(), Fingerprint: r.str()}
	// Seek via the section table rather than trusting sequential
	// position — this is what lets partial readers skip sections.
	r.seek(int(offs[0]))
	st.DW = decodeDW(r)
	r.seek(int(offs[1]))
	st.IR = decodeIR(r)
	r.seek(int(offs[2]))
	st.Onto = decodeOnto(r)
	if r.err != nil {
		return nil, r.err
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("store: %d trailing bytes after snapshot body", r.remaining())
	}
	return st, nil
}

// writeSnapshotFile writes an encoded snapshot atomically: temp file in
// the same directory, fsync, rename, directory fsync.
func writeSnapshotFile(fsys FS, path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := fsys.CreateTemp(dir, ".tmp-snap-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmpName := tmp.Name()
	defer fsys.Remove(tmpName) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("store: writing snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: syncing snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: closing snapshot: %w", err)
	}
	if err := fsys.Rename(tmpName, path); err != nil {
		return fmt.Errorf("store: publishing snapshot: %w", err)
	}
	_ = fsys.SyncDir(dir) // best-effort directory durability
	return nil
}

// --- warehouse section ---

func encodeDW(w *writer, snap *dw.Snapshot) {
	w.uvarint(uint64(len(snap.Dims)))
	for _, ds := range snap.Dims {
		w.str(ds.Dim)
		w.uvarint(uint64(len(ds.Levels)))
		for _, ls := range ds.Levels {
			w.str(ls.Level)
			w.uvarint(uint64(len(ls.Members)))
			for _, m := range ls.Members {
				w.str(m.Name)
				w.varint(int64(m.Parent))
				encodeStringMap(w, m.Attrs)
			}
		}
	}
	w.uvarint(uint64(len(snap.Facts)))
	for _, fs := range snap.Facts {
		w.str(fs.Fact)
		w.uvarint(uint64(fs.Rows))
		w.uvarint(uint64(len(fs.Coords)))
		for _, col := range fs.Coords {
			w.i32s(col)
		}
		w.uvarint(uint64(len(fs.Measures)))
		for _, col := range fs.Measures {
			w.f64s(col)
		}
		w.strs(fs.Sources)
		w.i32s(fs.SourceCodes)
	}
}

func decodeDW(r *reader) *dw.Snapshot {
	snap := &dw.Snapshot{}
	nDims := r.count(2)
	for d := 0; d < nDims && r.err == nil; d++ {
		ds := dw.DimensionSnapshot{Dim: r.str()}
		nLevels := r.count(2)
		for l := 0; l < nLevels && r.err == nil; l++ {
			ls := dw.LevelSnapshot{Level: r.str()}
			nMembers := r.count(2)
			if r.err == nil && nMembers > 0 {
				ls.Members = make([]dw.Member, nMembers)
				for i := range ls.Members {
					ls.Members[i] = dw.Member{
						Key:    i,
						Name:   r.str(),
						Parent: int(r.varint()),
						Attrs:  decodeStringMap(r),
					}
				}
			}
			ds.Levels = append(ds.Levels, ls)
		}
		snap.Dims = append(snap.Dims, ds)
	}
	nFacts := r.count(2)
	for f := 0; f < nFacts && r.err == nil; f++ {
		fs := dw.FactSnapshot{Fact: r.str(), Rows: int(r.uvarint())}
		nCoords := r.count(1)
		fs.Coords = make([][]int32, 0, nCoords)
		for c := 0; c < nCoords && r.err == nil; c++ {
			fs.Coords = append(fs.Coords, r.i32s())
		}
		nMeasures := r.count(1)
		fs.Measures = make([][]float64, 0, nMeasures)
		for c := 0; c < nMeasures && r.err == nil; c++ {
			fs.Measures = append(fs.Measures, r.f64s())
		}
		fs.Sources = r.strs()
		fs.SourceCodes = r.i32s()
		snap.Facts = append(snap.Facts, fs)
	}
	return snap
}

func encodeStringMap(w *writer, m map[string]string) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w.uvarint(uint64(len(keys)))
	for _, k := range keys {
		w.str(k)
		w.str(m[k])
	}
}

func decodeStringMap(r *reader) map[string]string {
	n := r.count(2)
	if r.err != nil || n == 0 {
		return nil
	}
	m := make(map[string]string, n)
	for i := 0; i < n; i++ {
		k := r.str()
		m[k] = r.str()
	}
	return m
}

// --- IR section ---
//
// The expensive parts of indexing a document — tokenisation, tagging,
// lemmatisation, window construction, posting accumulation — are all
// stored, so restore is a bulk load. Token text is NOT stored: a token's
// surface form is exactly doc.Text[start:end), so the decoder slices it
// back out of the document. Tags and lemmas are interned into
// per-snapshot tables and referenced by index.
//
// Since ir.Snapshot carries its sentences as wire token blocks and its
// posting lists delta/varint compressed, the store ships both verbatim:
// encode is a framed copy and decode hands back capacity-clamped
// subslices of the file image without materialising a single token or
// posting. ir.Import validates the blocks and decodes each document
// lazily on first touch, so restore wall-clock no longer scales with
// token count — it is dominated by the structural validation pass.

func encodeIR(w *writer, snap *ir.Snapshot) {
	w.uvarint(uint64(snap.PassageSize))
	w.uvarint(uint64(snap.Stride))
	w.strs(snap.TokTags)
	w.strs(snap.TokLemmas)

	w.uvarint(uint64(len(snap.Docs)))
	for i, doc := range snap.Docs {
		w.str(doc.URL)
		w.str(doc.Text)
		w.varint(doc.Ord)
		w.uvarint(uint64(snap.DocSents[i]))
		w.uvarint(uint64(snap.DocToks[i]))
		w.uvarint(uint64(len(snap.DocTokens[i])))
		w.buf = append(w.buf, snap.DocTokens[i]...)
	}

	w.uvarint(uint64(len(snap.Passages)))
	for _, p := range snap.Passages {
		w.uvarint(uint64(p.Doc))
		w.uvarint(uint64(p.SentStart))
		w.uvarint(uint64(p.SentEnd - p.SentStart))
	}

	w.strs(snap.Terms)
	encodeWirePostings(w, snap.Postings)
	encodeWirePostings(w, snap.DocPostings)
}

func decodeIR(r *reader) *ir.Snapshot {
	snap := &ir.Snapshot{
		PassageSize: int(r.uvarint()),
		Stride:      int(r.uvarint()),
	}
	snap.TokTags = r.strs()
	snap.TokLemmas = r.strs()

	nDocs := r.count(2)
	if r.err == nil && nDocs > 0 {
		snap.Docs = make([]ir.Document, 0, nDocs)
		snap.DocTokens = make([][]byte, 0, nDocs)
		snap.DocSents = make([]int32, 0, nDocs)
		snap.DocToks = make([]int32, 0, nDocs)
	}
	for d := 0; d < nDocs && r.err == nil; d++ {
		doc := ir.Document{URL: r.str(), Text: r.str(), Ord: r.varint()}
		nSents := r.count(1)
		nToks := r.count(3)
		blockLen := r.count(1)
		block := r.bytes(blockLen)
		if r.err != nil {
			break
		}
		snap.Docs = append(snap.Docs, doc)
		snap.DocTokens = append(snap.DocTokens, block)
		snap.DocSents = append(snap.DocSents, int32(nSents))
		snap.DocToks = append(snap.DocToks, int32(nToks))
	}

	nPassages := r.count(3)
	if r.err == nil && nPassages > 0 {
		snap.Passages = make([]ir.PassageRef, nPassages)
		for i := range snap.Passages {
			doc := r.uvarint()
			start := r.uvarint()
			span := r.uvarint()
			snap.Passages[i] = ir.PassageRef{
				Doc: int32(doc), SentStart: int32(start), SentEnd: int32(start + span),
			}
		}
	}

	snap.Terms = r.strs()
	snap.Postings = decodeWirePostings(r)
	snap.DocPostings = decodeWirePostings(r)
	return snap
}

// encodeWirePostings writes compressed posting lists: per list the
// posting count, the encoded byte length, and the delta/varint bytes
// verbatim — the exact form ir.Import adopts without re-encoding.
func encodeWirePostings(w *writer, lists []ir.PostingList) {
	w.uvarint(uint64(len(lists)))
	for _, pl := range lists {
		w.uvarint(uint64(pl.N))
		w.uvarint(uint64(len(pl.Enc)))
		w.buf = append(w.buf, pl.Enc...)
	}
}

func decodeWirePostings(r *reader) []ir.PostingList {
	n := r.count(1)
	if r.err != nil {
		return nil
	}
	lists := make([]ir.PostingList, n)
	for i := 0; i < n && r.err == nil; i++ {
		cnt := r.count(2)
		blen := r.count(1)
		enc := r.bytes(blen)
		if r.err != nil {
			break
		}
		lists[i] = ir.PostingList{N: int32(cnt), Enc: enc}
	}
	return lists
}

// --- ontology section ---

func encodeOnto(w *writer, snap *ontology.Snapshot) {
	w.str(snap.Name)
	w.uvarint(uint64(len(snap.Concepts)))
	for _, c := range snap.Concepts {
		w.str(c.Name)
		w.strs(c.Parents)
		w.uvarint(uint64(len(c.Attributes)))
		for _, a := range c.Attributes {
			w.str(a.Name)
			w.str(string(a.Kind))
			w.str(a.Type)
		}
		w.uvarint(uint64(len(c.Relations)))
		for _, rel := range c.Relations {
			w.str(rel.Name)
			w.str(rel.Target)
		}
		w.uvarint(uint64(len(c.Instances)))
		for _, inst := range c.Instances {
			w.str(inst.Name)
			w.strs(inst.Aliases)
			w.strs(inst.PropKeys)
			w.strs(inst.PropVals)
		}
		w.uvarint(uint64(len(c.Axioms)))
		for _, a := range c.Axioms {
			encodeAxiom(w, a)
		}
	}
}

func encodeAxiom(w *writer, a ontology.Axiom) {
	w.str(a.Concept)
	w.str(string(a.Kind))
	w.strs(a.Units)
	w.str(a.Unit)
	w.f64(a.Min)
	w.f64(a.Max)
	w.str(a.FromUnit)
	w.str(a.ToUnit)
	w.f64(a.Scale)
	w.f64(a.Offset)
}

func decodeOnto(r *reader) *ontology.Snapshot {
	snap := &ontology.Snapshot{Name: r.str()}
	nConcepts := r.count(2)
	for i := 0; i < nConcepts && r.err == nil; i++ {
		c := ontology.ConceptSnapshot{Name: r.str(), Parents: r.strs()}
		nAttrs := r.count(3)
		for a := 0; a < nAttrs && r.err == nil; a++ {
			c.Attributes = append(c.Attributes, ontology.Attribute{
				Name: r.str(), Kind: ontology.AttrKind(r.str()), Type: r.str(),
			})
		}
		nRels := r.count(2)
		for x := 0; x < nRels && r.err == nil; x++ {
			c.Relations = append(c.Relations, ontology.Relation{Name: r.str(), Target: r.str()})
		}
		nInsts := r.count(2)
		for x := 0; x < nInsts && r.err == nil; x++ {
			c.Instances = append(c.Instances, ontology.InstanceSnapshot{
				Name: r.str(), Aliases: r.strs(), PropKeys: r.strs(), PropVals: r.strs(),
			})
		}
		nAxioms := r.count(2)
		for x := 0; x < nAxioms && r.err == nil; x++ {
			c.Axioms = append(c.Axioms, decodeAxiom(r))
		}
		snap.Concepts = append(snap.Concepts, c)
	}
	return snap
}

func decodeAxiom(r *reader) ontology.Axiom {
	return ontology.Axiom{
		Concept:  r.str(),
		Kind:     ontology.AxiomKind(r.str()),
		Units:    r.strs(),
		Unit:     r.str(),
		Min:      r.f64(),
		Max:      r.f64(),
		FromUnit: r.str(),
		ToUnit:   r.str(),
		Scale:    r.f64(),
		Offset:   r.f64(),
	}
}
