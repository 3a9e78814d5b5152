package ir

import "encoding/binary"

// Compressed posting lists.
//
// A term's postings are ascending (id, tf) pairs — ids strictly increase
// because documents and passages are appended in order and each appears
// at most once per list. That makes the list delta-compressible: store
// the gap to the previous id and the tf as unsigned varints (~2 bytes
// per posting in dense lists vs 8 bytes for the fixed-width struct).
//
// Lists are hybrid: an encoded prefix plus a small raw tail. Add appends
// to the tail; when the tail reaches encodeThreshold entries it is
// flushed into the encoded prefix. Flushing is a pure function of the
// posting sequence — the bytes do not depend on when flushes happened —
// so Export can canonicalise any list (however it was built) into one
// deterministic wire form, and a restored index re-exports byte-identical
// snapshots.
//
// Lists are never materialised for reading: the scoring kernel
// (accumulateLocked, sparse.go) decodes the encoded prefix in place and
// then walks the raw tail, with zero per-query allocation, preserving the
// exact (id, tf) sequence the raw lists held — scores are a fold over
// that sequence, so rankings stay byte-identical to the dense reference
// oracle, which reads lists through a test-only cursor.

// encodeThreshold is the raw-tail length that triggers a flush into the
// encoded prefix. Lists shorter than this stay raw (rare terms), keeping
// Add cheap; longer lists hold at most this many uncompressed postings.
const encodeThreshold = 16

// postingList is the in-memory hybrid form of one term's postings.
type postingList struct {
	enc    []byte    // delta/varint encoded prefix
	encN   int32     // postings in enc
	lastID int32     // last id in enc; -1 when encN == 0
	raw    []Posting // uncompressed tail, ascending, ids > lastID
}

// count returns the number of postings in the list.
func (pl *postingList) count() int { return int(pl.encN) + len(pl.raw) }

// bytes returns the memory held by posting storage: encoded bytes plus
// the raw tail at its struct width.
func (pl *postingList) bytes() int { return len(pl.enc) + 8*len(pl.raw) }

// add appends a posting (id must exceed every id already present) and
// flushes the raw tail into the encoded prefix once it reaches the
// threshold.
func (pl *postingList) add(id, tf int32) {
	pl.raw = append(pl.raw, Posting{ID: id, TF: tf})
	if len(pl.raw) >= encodeThreshold {
		pl.flush()
	}
}

// flush encodes the raw tail onto the prefix. The encoding is positional
// — each posting's bytes depend only on its predecessor in the full
// sequence — so incremental flushes and a one-shot encode of the whole
// list produce identical bytes.
func (pl *postingList) flush() {
	prev := pl.prevID()
	for _, p := range pl.raw {
		pl.enc = appendPosting(pl.enc, prev, p)
		prev = p.ID
	}
	pl.encN += int32(len(pl.raw))
	pl.lastID = prev
	pl.raw = pl.raw[:0]
}

// prevID returns the delta base for the next encoded posting.
func (pl *postingList) prevID() int32 {
	if pl.encN == 0 {
		return -1
	}
	return pl.lastID
}

// appendPosting encodes one posting as (gap, tf) uvarints. prev is -1
// before the first posting, so the first gap is id+1; gaps are always
// ≥ 1 and tfs ≥ 1, making zero bytes impossible in a valid stream.
func appendPosting(dst []byte, prev int32, p Posting) []byte {
	dst = binary.AppendUvarint(dst, uint64(uint32(p.ID-prev)))
	return binary.AppendUvarint(dst, uint64(uint32(p.TF)))
}

// PostingList is the canonical wire form of one term's postings: the
// full sequence delta/varint-encoded, no raw tail. It is what Export
// produces, Import consumes, and the durability snapshot stores verbatim
// — restore installs the bytes without re-encoding (snapshot.go,
// internal/store).
type PostingList struct {
	N   int32  // posting count
	Enc []byte // (gap, tf) uvarint pairs; gap is delta from previous id (base -1)
}

// export canonicalises the list into wire form: the encoded prefix
// verbatim plus the tail encoded behind it. Because encoding is
// positional, the result equals CompressPostings over the full sequence.
// With no tail the prefix itself is the wire form, handed out as a
// capacity-clamped view: the list only ever appends past it, so the
// exported bytes never change, and an append to the view reallocates.
func (pl *postingList) export() PostingList {
	n := pl.count()
	if n == 0 {
		return PostingList{}
	}
	if len(pl.raw) == 0 {
		return PostingList{N: int32(n), Enc: pl.enc[:len(pl.enc):len(pl.enc)]}
	}
	enc := make([]byte, len(pl.enc), len(pl.enc)+3*len(pl.raw))
	copy(enc, pl.enc)
	prev := pl.prevID()
	for _, p := range pl.raw {
		enc = appendPosting(enc, prev, p)
		prev = p.ID
	}
	return PostingList{N: int32(n), Enc: enc}
}

// checkWirePostings validates a wire list: exact posting count, strictly
// ascending ids inside [0, limit), tfs ≥ 1, no trailing bytes. Returns
// the last id for adoption.
func checkWirePostings(w PostingList, limit int) (lastID int32, err error) {
	if w.N < 0 {
		return 0, errNegativeCount
	}
	prev := int32(-1)
	pos := 0
	for i := int32(0); i < w.N; i++ {
		gap, n := binary.Uvarint(w.Enc[pos:])
		if n <= 0 {
			return 0, errTruncatedList
		}
		pos += n
		tf, n := binary.Uvarint(w.Enc[pos:])
		if n <= 0 {
			return 0, errTruncatedList
		}
		pos += n
		if gap == 0 || gap > uint64(uint32(1)<<31-1) {
			return 0, errBadGap
		}
		id := int64(prev) + int64(gap)
		if id >= int64(limit) {
			return 0, errIDRange
		}
		if tf < 1 || tf > uint64(uint32(1)<<31-1) {
			return 0, errBadTF
		}
		prev = int32(id)
	}
	if pos != len(w.Enc) {
		return 0, errTrailingBytes
	}
	return prev, nil
}

// postingsBytesLocked sums posting storage across both stores. Caller
// holds at least the read lock.
func (ix *Index) postingsBytesLocked() (bytes, count int) {
	for i := range ix.postings {
		bytes += ix.postings[i].bytes()
		count += ix.postings[i].count()
	}
	for i := range ix.docPostings {
		bytes += ix.docPostings[i].bytes()
		count += ix.docPostings[i].count()
	}
	return bytes, count
}

// PostingsBytes reports the bytes held by posting storage and the total
// posting count across the passage and document stores — the compression
// ratio bench/ reports as ir.bytes_per_posting (fixed-width storage would
// hold exactly 8 bytes per posting).
func (ix *Index) PostingsBytes() (bytes, count int) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.postingsBytesLocked()
}
