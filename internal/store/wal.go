package store

import (
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
	"time"

	"dwqa/internal/dw"
	"dwqa/internal/ir"
	"dwqa/internal/obs"
)

// WAL record layout (append-only, one record per committed batch):
//
//	seq     uvarint   strictly increasing across the store's lifetime
//	type    byte      recBatch | recDocuments
//	len     uvarint   payload length in bytes
//	payload bytes
//	crc32c  4 bytes LE   checksum of seq+type+len+payload
//
// A crash can tear only the final record (appends are sequential); replay
// verifies each record and truncates the log at the first bad one, so a
// torn tail never poisons recovery and the next append continues from the
// repaired end.

// Each layer has one write, so the log has one record kind per layer.
// Kinds 1-3 (a member batch, a fact-row batch and a single document) are
// retired: nothing writes them, replay rejects them as unknown, and their
// numbers are never reused.
const (
	// recBatch is one combined warehouse transaction (dw.AddBatch): a
	// member batch plus the fact rows that depend on it, committed — and
	// therefore replayed — as a unit, so a crash can never resurrect the
	// members without their rows.
	recBatch byte = 4
	// recDocuments is a batch of indexed documents (ir.Index.AddBatch):
	// one record, one fsync, however many pages the streaming seeder
	// committed together.
	recDocuments byte = 5
)

// walRecord is one decoded record.
type walRecord struct {
	seq     uint64
	kind    byte
	payload []byte
}

// wal is the append side of the log. Store serialises access.
type wal struct {
	path  string
	f     File
	seq   uint64         // last appended (or scanned) sequence number
	fsync *obs.Histogram // optional fsync latency, set via Store.SetMetrics
}

// openWAL opens (creating if needed) the log through the store's
// filesystem, validates every record, truncates a torn or corrupt tail,
// and positions for append. It returns the number of bytes dropped by
// the repair (0 for a clean log).
func openWAL(fsys FS, path string) (*wal, int64, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, 0, fmt.Errorf("store: opening WAL: %w", err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("store: reading WAL: %w", err)
	}
	valid, lastSeq, _ := scanWAL(data, 0)
	dropped := int64(len(data)) - int64(valid)
	if dropped > 0 {
		if err := f.Truncate(int64(valid)); err != nil {
			f.Close()
			return nil, 0, fmt.Errorf("store: repairing WAL tail: %w", err)
		}
	}
	if _, err := f.Seek(int64(valid), io.SeekStart); err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("store: seeking WAL: %w", err)
	}
	return &wal{path: path, f: f, seq: lastSeq}, dropped, nil
}

// scanWAL walks the records in data, returning the byte length of the
// valid prefix, the last valid sequence number (or prevSeq when none) and
// the decoded records. Validation is structural: checksum and strictly
// increasing sequence numbers; anything else ends the valid prefix.
func scanWAL(data []byte, prevSeq uint64) (validLen int, lastSeq uint64, records []walRecord) {
	lastSeq = prevSeq
	off := 0
	for off < len(data) {
		r := &reader{buf: data, off: off}
		seq := r.uvarint()
		if r.err != nil {
			break
		}
		if r.off >= len(data) {
			break
		}
		kind := data[r.off]
		r.off++
		n := r.count(1)
		if r.err != nil || r.off+n+4 > len(data) {
			break
		}
		payload := data[r.off : r.off+n]
		r.off += n
		want := uint32(data[r.off]) | uint32(data[r.off+1])<<8 | uint32(data[r.off+2])<<16 | uint32(data[r.off+3])<<24
		if crc32.Checksum(data[off:r.off], crcTable) != want {
			break
		}
		r.off += 4
		if seq <= lastSeq {
			// Sequence regression: the log was overwritten or corrupted in
			// a way the checksum cannot see; stop trusting it here.
			break
		}
		records = append(records, walRecord{seq: seq, kind: kind, payload: payload})
		lastSeq = seq
		off = r.off
		validLen = off
	}
	return validLen, lastSeq, records
}

// append encodes and appends one record, fsyncing before return — a feed
// is only acked once its log record is on stable storage. A failed write
// or sync rolls the file back to the pre-append offset (and the sequence
// counter back with it): a record the caller was told failed must not
// survive to be replayed, and the garbage of a short write must not
// strand later acked records behind an unreadable prefix.
func (w *wal) append(kind byte, payload []byte) error {
	if w.f == nil {
		return fmt.Errorf("store: WAL closed after an earlier append failure")
	}
	start, err := w.f.Seek(0, io.SeekCurrent)
	if err != nil {
		return fmt.Errorf("store: positioning WAL: %w", err)
	}
	w.seq++
	rec := &writer{buf: make([]byte, 0, len(payload)+16)}
	rec.uvarint(w.seq)
	rec.buf = append(rec.buf, kind)
	rec.uvarint(uint64(len(payload)))
	rec.buf = append(rec.buf, payload...)
	rec.buf = appendCRC(rec.buf)
	rollback := func(cause error) error {
		w.seq--
		if err := w.f.Truncate(start); err != nil {
			// The file could not be rolled back either; poison the handle
			// so no further append lands after unknown bytes. Recovery's
			// tail truncation handles the partial record on next boot.
			w.f.Close()
			w.f = nil
			return fmt.Errorf("store: %w (and rolling back the partial record failed: %v — WAL closed)", cause, err)
		}
		if _, err := w.f.Seek(start, io.SeekStart); err != nil {
			w.f.Close()
			w.f = nil
			return fmt.Errorf("store: %w (and reseeking after rollback failed: %v — WAL closed)", cause, err)
		}
		return fmt.Errorf("store: %w", cause)
	}
	if _, err := w.f.Write(rec.buf); err != nil {
		return rollback(fmt.Errorf("appending WAL record %d: %w", w.seq, err))
	}
	var fsyncStart time.Time
	if w.fsync != nil {
		fsyncStart = time.Now()
	}
	if err := w.f.Sync(); err != nil {
		return rollback(fmt.Errorf("syncing WAL record %d: %w", w.seq, err))
	}
	if w.fsync != nil {
		w.fsync.Observe(time.Since(fsyncStart))
	}
	return nil
}

// reset truncates the log to zero bytes (after a snapshot has made every
// record redundant). The sequence counter is NOT reset: sequence numbers
// stay monotonic for the store's whole lifetime, which is what makes
// replay gating safe.
func (w *wal) reset() error {
	if w.f == nil {
		return fmt.Errorf("store: WAL closed after an earlier append failure")
	}
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("store: resetting WAL: %w", err)
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("store: seeking WAL: %w", err)
	}
	return w.f.Sync()
}

func (w *wal) close() error {
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}

// --- record payload encodings ---

func encodeMemberSpecs(specs []dw.MemberSpec) []byte {
	w := &writer{}
	w.uvarint(uint64(len(specs)))
	for _, s := range specs {
		w.str(s.Dim)
		w.str(s.Level)
		w.str(s.Name)
		w.str(s.Parent)
		encodeStringMap(w, s.Attrs)
	}
	return w.buf
}

func decodeMemberSpecs(payload []byte) ([]dw.MemberSpec, error) {
	r := &reader{buf: payload}
	n := r.count(4)
	specs := make([]dw.MemberSpec, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		specs = append(specs, dw.MemberSpec{
			Dim:    r.str(),
			Level:  r.str(),
			Name:   r.str(),
			Parent: r.str(),
			Attrs:  decodeStringMap(r),
		})
	}
	if r.err != nil {
		return nil, r.err
	}
	return specs, nil
}

func encodeFactRows(fact string, rows []dw.FactRow) []byte {
	w := &writer{}
	w.str(fact)
	w.uvarint(uint64(len(rows)))
	for _, row := range rows {
		encodeStringMap(w, row.Coords)
		keys := make([]string, 0, len(row.Measures))
		for k := range row.Measures {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		w.uvarint(uint64(len(keys)))
		for _, k := range keys {
			w.str(k)
			w.f64(row.Measures[k])
		}
		w.str(row.Provenance)
	}
	return w.buf
}

func decodeFactRows(payload []byte) (string, []dw.FactRow, error) {
	r := &reader{buf: payload}
	fact := r.str()
	n := r.count(4)
	rows := make([]dw.FactRow, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		row := dw.FactRow{Coords: decodeStringMap(r)}
		nm := r.count(9)
		if nm > 0 {
			row.Measures = make(map[string]float64, nm)
			for j := 0; j < nm && r.err == nil; j++ {
				k := r.str()
				row.Measures[k] = r.f64()
			}
		}
		row.Provenance = r.str()
		rows = append(rows, row)
	}
	if r.err != nil {
		return "", nil, r.err
	}
	return fact, rows, nil
}

// encodeBatch frames one combined warehouse transaction: the member-spec
// payload, length-prefixed so the decoder knows where the fact-row
// payload begins (both sub-payloads are the existing encodings).
func encodeBatch(specs []dw.MemberSpec, fact string, rows []dw.FactRow) []byte {
	specsPayload := encodeMemberSpecs(specs)
	w := &writer{buf: make([]byte, 0, len(specsPayload)+16)}
	w.uvarint(uint64(len(specsPayload)))
	w.buf = append(w.buf, specsPayload...)
	w.buf = append(w.buf, encodeFactRows(fact, rows)...)
	return w.buf
}

func decodeBatch(payload []byte) ([]dw.MemberSpec, string, []dw.FactRow, error) {
	r := &reader{buf: payload}
	n := r.count(1)
	if r.err != nil || r.off+n > len(payload) {
		return nil, "", nil, fmt.Errorf("store: batch record: bad member-spec framing")
	}
	specs, err := decodeMemberSpecs(payload[r.off : r.off+n])
	if err != nil {
		return nil, "", nil, err
	}
	fact, rows, err := decodeFactRows(payload[r.off+n:])
	if err != nil {
		return nil, "", nil, err
	}
	return specs, fact, rows, nil
}

// encodeDocuments frames a document batch: the (URL, text) pairs, then
// one varint per document carrying its global ordinal (ir.Document.Ord;
// zero in unsharded deployments). The ordinal block is mandatory: a
// payload that ends after the pairs fails to decode.
func encodeDocuments(docs []ir.Document) []byte {
	w := &writer{}
	w.uvarint(uint64(len(docs)))
	for _, d := range docs {
		w.str(d.URL)
		w.str(d.Text)
	}
	for _, d := range docs {
		w.varint(d.Ord)
	}
	return w.buf
}

func decodeDocuments(payload []byte) ([]ir.Document, error) {
	r := &reader{buf: payload}
	n := r.count(2)
	docs := make([]ir.Document, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		docs = append(docs, ir.Document{URL: r.str(), Text: r.str()})
	}
	for i := 0; i < len(docs) && r.err == nil; i++ {
		docs[i].Ord = r.varint()
	}
	if r.err != nil {
		return nil, r.err
	}
	return docs, nil
}
