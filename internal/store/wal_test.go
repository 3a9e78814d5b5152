package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dwqa/internal/dw"
	"dwqa/internal/ir"
)

// TestDocumentsRecordRequiresOrdinals pins the recDocuments payload: the
// per-document ordinal block is part of the format, so a payload that
// stops after the (URL, text) pairs — or inside the block — is corrupt.
func TestDocumentsRecordRequiresOrdinals(t *testing.T) {
	docs := []ir.Document{{URL: "u1", Text: "One."}, {URL: "u2", Text: "Two.", Ord: 3}}
	full := encodeDocuments(docs)
	if got, err := decodeDocuments(full); err != nil || !reflect.DeepEqual(got, docs) {
		t.Fatalf("round trip: %+v, %v", got, err)
	}
	pairs := &writer{}
	pairs.uvarint(uint64(len(docs)))
	for _, d := range docs {
		pairs.str(d.URL)
		pairs.str(d.Text)
	}
	if got, err := decodeDocuments(pairs.buf); err == nil {
		t.Fatalf("payload without ordinals decoded: %+v", got)
	}
	if got, err := decodeDocuments(full[:len(full)-1]); err == nil {
		t.Fatalf("payload with a truncated ordinal block decoded: %+v", got)
	}
}

// frameRecord frames one WAL record exactly as wal.append does.
func frameRecord(seq uint64, kind byte, payload []byte) []byte {
	w := &writer{}
	w.uvarint(seq)
	w.buf = append(w.buf, kind)
	w.uvarint(uint64(len(payload)))
	w.buf = append(w.buf, payload...)
	return appendCRC(w.buf)
}

// oracleRecord is one record of a log image's valid prefix.
type oracleRecord struct {
	seq     uint64
	kind    byte
	payload []byte
}

// walOracle walks a log image independently of scanWAL and returns the
// records of its valid prefix and that prefix's length: the prefix ends
// at the first record that is cut short, fails its checksum or does not
// raise the sequence number.
func walOracle(data []byte) (recs []oracleRecord, valid int) {
	var last uint64
	for off := 0; off < len(data); {
		seq, n := binary.Uvarint(data[off:])
		if n <= 0 || off+n >= len(data) {
			break
		}
		p := off + n
		kind := data[p]
		size, n := binary.Uvarint(data[p+1:])
		if n <= 0 || size > uint64(len(data)) {
			break
		}
		p += 1 + n
		end := p + int(size)
		if end+4 > len(data) {
			break
		}
		if crc32.Checksum(data[off:end], crcTable) != binary.LittleEndian.Uint32(data[end:]) || seq <= last {
			break
		}
		recs = append(recs, oracleRecord{seq: seq, kind: kind, payload: data[p:end]})
		last, off, valid = seq, end+4, end+4
	}
	return recs, valid
}

// recordingHandlers renders each record the handlers receive, in order.
func recordingHandlers(log *[]string) ReplayHandlers {
	return ReplayHandlers{
		Batch: func(specs []dw.MemberSpec, fact string, rows []dw.FactRow) error {
			*log = append(*log, fmt.Sprint("batch", specs, fact, rows))
			return nil
		},
		Documents: func(docs []ir.Document) error {
			*log = append(*log, fmt.Sprint("documents", docs))
			return nil
		},
	}
}

// expectedApply is what replaying the oracle's records must apply: every
// record up to the first whose kind is unknown or whose payload does not
// decode, and the error that record must raise (nil when all apply).
func expectedApply(recs []oracleRecord) (want []string, stopErr string) {
	for _, rec := range recs {
		switch rec.kind {
		case recBatch:
			specs, fact, rows, err := decodeBatch(rec.payload)
			if err != nil {
				return want, "store: WAL record"
			}
			want = append(want, fmt.Sprint("batch", specs, fact, rows))
		case recDocuments:
			docs, err := decodeDocuments(rec.payload)
			if err != nil {
				return want, "store: WAL record"
			}
			want = append(want, fmt.Sprint("documents", docs))
		default:
			return want, "unknown type"
		}
	}
	return want, ""
}

// FuzzWALReplay feeds arbitrary log images to leader recovery (Open +
// Replay) and to the read-only follower tail (TailWAL). Neither may
// panic; both apply exactly the records before the first corrupt one,
// in order; a record of a retired or unknown kind stops replay with the
// "unknown type" error; and recovery repairs the file to its valid
// prefix while the tail leaves it untouched.
func FuzzWALReplay(f *testing.F) {
	specs := []dw.MemberSpec{
		{Dim: "City", Level: "Country", Name: "Spain"},
		{Dim: "City", Level: "City", Name: "Barcelona", Parent: "Spain", Attrs: map[string]string{"IATA": "BCN"}},
	}
	rows := []dw.FactRow{{
		Coords:   map[string]string{"City": "Barcelona", "Date": "2004-01-01"},
		Measures: map[string]float64{"TempC": 13.5}, Provenance: "http://w/bcn",
	}}
	docs := []ir.Document{{URL: "http://w/bcn", Text: "Barcelona is mild.", Ord: 4}}

	batch := frameRecord(1, recBatch, encodeBatch(specs, "Weather", rows))
	documents := frameRecord(2, recDocuments, encodeDocuments(docs))
	both := append(append([]byte(nil), batch...), documents...)
	flipped := append([]byte(nil), both...)
	flipped[len(batch)-1] ^= 0xff // the batch record's checksum

	member := &writer{}
	member.uvarint(1)
	for _, s := range []string{"City", "Country", "Spain", ""} {
		member.str(s)
	}
	member.uvarint(0)
	document := &writer{}
	document.str("http://w/bcn")
	document.str("Barcelona is mild.")
	document.varint(4)
	retired := [][]byte{member.buf, encodeFactRows("Weather", rows), document.buf}

	f.Add(batch)
	f.Add(frameRecord(1, recDocuments, encodeDocuments(docs)))
	f.Add(both[:len(both)-3]) // torn tail
	f.Add(flipped)
	for i, payload := range retired {
		f.Add(append(frameRecord(1, byte(i+1), payload), documents...))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, valid := walOracle(data)
		want, stopErr := expectedApply(recs)

		dir := t.TempDir()
		walPath := filepath.Join(dir, walName)
		if err := os.WriteFile(walPath, data, 0o644); err != nil {
			t.Fatal(err)
		}

		// The follower's tail first: it must not modify the file.
		var tailed []string
		n, _, err := TailWAL(OS(), dir, 0, recordingHandlers(&tailed))
		tailWant, tailErr := want, stopErr
		if len(recs) > 0 && recs[0].seq > 1 {
			tailWant, tailErr = nil, ErrReplicaGap.Error()
		}
		checkApplied(t, "TailWAL", n, tailed, err, tailWant, tailErr)
		if after, _ := os.ReadFile(walPath); !bytes.Equal(after, data) {
			t.Fatalf("TailWAL modified the log: %d bytes → %d", len(data), len(after))
		}

		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		var replayed []string
		n, err = s.Replay(0, recordingHandlers(&replayed))
		checkApplied(t, "Replay", n, replayed, err, want, stopErr)
		if after, _ := os.ReadFile(walPath); len(after) != valid {
			t.Fatalf("recovery left %d log bytes, want the %d-byte valid prefix", len(after), valid)
		}
	})
}

func checkApplied(t *testing.T, who string, n int, got []string, err error, want []string, wantErr string) {
	t.Helper()
	if n != len(got) || !reflect.DeepEqual(got, want) {
		t.Fatalf("%s applied %d records %q, want %q", who, n, got, want)
	}
	switch {
	case wantErr == "" && err != nil:
		t.Fatalf("%s: unexpected error %v", who, err)
	case wantErr != "" && (err == nil || !strings.Contains(err.Error(), wantErr)):
		t.Fatalf("%s: error %v, want one containing %q", who, err, wantErr)
	}
}
