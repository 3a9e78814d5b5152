package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dwqa/internal/dw"
	"dwqa/internal/ir"
	"dwqa/internal/mdm"
	"dwqa/internal/ontology"
)

// testSchema builds a small star schema for the store tests.
func testSchema() *mdm.Schema {
	city := &mdm.DimensionClass{
		Name: "City",
		Levels: []*mdm.Level{
			{Name: "City", Descriptor: "Name", RollsUpTo: "Country"},
			{Name: "Country", Descriptor: "Name"},
		},
	}
	date := &mdm.DimensionClass{
		Name: "Date",
		Levels: []*mdm.Level{
			{Name: "Day", Descriptor: "Date", RollsUpTo: "Month"},
			{Name: "Month", Descriptor: "Name"},
		},
	}
	weather := &mdm.FactClass{
		Name:     "Weather",
		Measures: []mdm.Measure{{Name: "TempC", Type: mdm.TypeFloat}},
		Dimensions: []mdm.DimensionRef{
			{Role: "City", Dimension: "City"},
			{Role: "Date", Dimension: "Date"},
		},
	}
	return mdm.NewSchema("store-test").AddDimension(city).AddDimension(date).AddFactClass(weather)
}

// buildTestState assembles a populated State: warehouse rows with
// provenance and attributes, an index over real prose, an ontology with
// instances and axioms.
func buildTestState(t testing.TB) *State {
	t.Helper()
	wh, err := dw.New(testSchema())
	if err != nil {
		t.Fatal(err)
	}
	if err := wh.AddBatch([]dw.MemberSpec{
		{Dim: "City", Level: "Country", Name: "Spain"},
		{Dim: "City", Level: "City", Name: "Barcelona", Parent: "Spain", Attrs: map[string]string{"IATA": "BCN"}},
		{Dim: "Date", Level: "Month", Name: "2004-01"},
		{Dim: "Date", Level: "Day", Name: "2004-01-01", Parent: "2004-01"},
	}, "Weather", []dw.FactRow{
		{Coords: map[string]string{"City": "Barcelona", "Date": "2004-01-01"},
			Measures: map[string]float64{"TempC": 13.5}, Provenance: "http://w/bcn"},
	}); err != nil {
		t.Fatal(err)
	}

	ix := ir.NewIndex(ir.WithPassageSize(3), ir.WithStride(1))
	if err := ix.AddBatch([]ir.Document{
		{URL: "http://w/bcn", Text: "Barcelona is mild in January. Temperatures reach 13 degrees. Rain is rare. The beach stays open."},
		{URL: "http://w/mad", Text: "Madrid is cold in January. Temperatures drop to 2 degrees. Snow falls on the sierra."},
	}); err != nil {
		t.Fatal(err)
	}

	onto := ontology.New("store-test")
	onto.Subclass("Airport", "Location")
	onto.AddAttribute("Airport", ontology.Attribute{Name: "Name", Kind: ontology.KindDescriptor, Type: "String"})
	onto.AddRelation("Airport", ontology.Relation{Name: "locatedIn", Target: "City"})
	onto.AddInstance("Airport", ontology.Instance{
		Name: "El Prat", Aliases: []string{"BCN"}, Properties: map[string]string{"locatedIn": "Barcelona"},
	})
	if err := onto.AddAxiom(ontology.Axiom{
		Concept: "Temperature", Kind: ontology.AxiomUnitConversion,
		FromUnit: "C", ToUnit: "F", Scale: 1.8, Offset: 32,
	}); err != nil {
		t.Fatal(err)
	}

	return &State{WALSeq: 7, DW: wh.Export(), IR: ix.Export(), Onto: onto.Export()}
}

func TestStateCodecRoundTrip(t *testing.T) {
	state := buildTestState(t)
	data := EncodeState(state)
	got, err := DecodeState(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.WALSeq != state.WALSeq {
		t.Fatalf("WALSeq %d, want %d", got.WALSeq, state.WALSeq)
	}
	if !reflect.DeepEqual(got.DW, state.DW) {
		t.Fatal("warehouse snapshot diverges after codec round-trip")
	}
	if !reflect.DeepEqual(got.IR, state.IR) {
		t.Fatal("index snapshot diverges after codec round-trip")
	}
	if !reflect.DeepEqual(got.Onto, state.Onto) {
		t.Fatal("ontology snapshot diverges after codec round-trip")
	}
	// Determinism: encoding the same state twice yields identical bytes.
	if !reflect.DeepEqual(data, EncodeState(state)) {
		t.Fatal("snapshot encoding is not deterministic")
	}
	// The decoded snapshots import into live structures.
	wh, err := dw.New(testSchema())
	if err != nil {
		t.Fatal(err)
	}
	if err := wh.Import(got.DW); err != nil {
		t.Fatal(err)
	}
	ix := ir.NewIndex()
	if err := ix.Import(got.IR); err != nil {
		t.Fatal(err)
	}
	if _, err := ontology.FromSnapshot(got.Onto); err != nil {
		t.Fatal(err)
	}
}

// FuzzDecodeState: every boot restores through DecodeState, so arbitrary
// bytes must come back as an error, never a panic. Each input is decoded
// as given and resealed with a valid checksum, so mutations reach the
// section decoders past the checksum gate. Whatever decodes re-encodes
// to a fixed point: decoding that encoding succeeds and encodes to the
// same bytes. The seeds are encodings of small valid states, which must
// round-trip byte for byte.
func FuzzDecodeState(f *testing.F) {
	for _, st := range []*State{
		{DW: &dw.Snapshot{}, IR: &ir.Snapshot{}, Onto: &ontology.Snapshot{}},
		{WALSeq: 3, Fingerprint: "seed=1", DW: &dw.Snapshot{}, IR: &ir.Snapshot{}, Onto: &ontology.Snapshot{Name: "o"}},
		buildTestState(f),
	} {
		enc := EncodeState(st)
		got, err := DecodeState(enc)
		if err != nil {
			f.Fatalf("valid state does not decode: %v", err)
		}
		if !bytes.Equal(EncodeState(got), enc) {
			f.Fatal("valid state does not round-trip byte for byte")
		}
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		decodeFixedPoint(t, data)
		if len(data) >= 4 {
			body := data[: len(data)-4 : len(data)-4]
			decodeFixedPoint(t, binary.LittleEndian.AppendUint32(body, crc32.Checksum(body, crcTable)))
		}
	})
}

// decodeFixedPoint decodes data and, when that succeeds, checks that its
// re-encoding is a fixed point of decode∘encode.
func decodeFixedPoint(t *testing.T, data []byte) {
	st, err := DecodeState(data)
	if err != nil {
		return
	}
	enc := EncodeState(st)
	again, err := DecodeState(enc)
	if err != nil {
		t.Fatalf("re-encoded state does not decode: %v", err)
	}
	if !bytes.Equal(EncodeState(again), enc) {
		t.Fatal("re-encoded state is not a fixed point")
	}
}

func TestSnapshotFileRoundTripAndPrune(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Empty dir: no snapshot, no error.
	if state, _, err := s.LoadSnapshot(); err != nil || state != nil {
		t.Fatalf("empty dir: state=%v err=%v", state, err)
	}

	for seq := uint64(1); seq <= 3; seq++ {
		state := buildTestState(t)
		state.WALSeq = seq
		if _, err := s.WriteSnapshot(state); err != nil {
			t.Fatal(err)
		}
	}
	state, path, err := s.LoadSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if state.WALSeq != 3 {
		t.Fatalf("loaded snapshot covers seq %d, want newest (3)", state.WALSeq)
	}
	if filepath.Base(path) != "snap-00000000000000000003.dwqa" {
		t.Fatalf("unexpected snapshot path %s", path)
	}
	// Pruned to the newest two.
	if paths := s.snapshotPaths(); len(paths) != 2 {
		t.Fatalf("%d snapshots kept, want 2: %v", len(paths), paths)
	}
}

// replayURLs is a handler set that records the URL of every replayed
// document, in replay order.
func replayURLs(urls *[]string) ReplayHandlers {
	return ReplayHandlers{Documents: func(docs []ir.Document) error {
		for _, d := range docs {
			*urls = append(*urls, d.URL)
		}
		return nil
	}}
}

func TestWALAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	members := []dw.MemberSpec{
		{Dim: "City", Level: "Country", Name: "Spain"},
		{Dim: "City", Level: "City", Name: "Barcelona", Parent: "Spain", Attrs: map[string]string{"IATA": "BCN"}},
	}
	rows := []dw.FactRow{
		{Coords: map[string]string{"City": "Barcelona", "Date": "2004-01-01"},
			Measures: map[string]float64{"TempC": 13.5}, Provenance: "http://w/bcn"},
	}
	docs := []ir.Document{
		{URL: "http://w/bcn", Text: "Barcelona is mild."},
		{URL: "http://w/mad", Text: "Madrid is cold.", Ord: 7},
	}

	if err := s.LogBatch(members, "Weather", rows); err != nil {
		t.Fatal(err)
	}
	if err := s.LogDocuments(docs[:1]); err != nil {
		t.Fatal(err)
	}
	if err := s.LogDocuments(docs[1:]); err != nil {
		t.Fatal(err)
	}
	if s.Seq() != 3 {
		t.Fatalf("seq %d after 3 appends", s.Seq())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen (as recovery would) and replay everything.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Seq() != 3 {
		t.Fatalf("reopened seq %d, want 3", s2.Seq())
	}
	var gotMembers []dw.MemberSpec
	var gotFact string
	var gotRows []dw.FactRow
	var gotDocs []ir.Document
	n, err := s2.Replay(0, ReplayHandlers{
		Batch: func(specs []dw.MemberSpec, fact string, rs []dw.FactRow) error {
			gotMembers, gotFact, gotRows = specs, fact, rs
			return nil
		},
		Documents: func(ds []ir.Document) error { gotDocs = append(gotDocs, ds...); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("replayed %d records, want 3", n)
	}
	if !reflect.DeepEqual(gotMembers, members) {
		t.Fatalf("batch members diverge:\n got %+v\nwant %+v", gotMembers, members)
	}
	if gotFact != "Weather" || !reflect.DeepEqual(gotRows, rows) {
		t.Fatalf("batch rows diverge:\n got %s %+v\nwant Weather %+v", gotFact, gotRows, rows)
	}
	if !reflect.DeepEqual(gotDocs, docs) {
		t.Fatalf("documents diverge (ordinals included): %+v", gotDocs)
	}

	// Sequence gating: replaying after seq 2 applies only the tail.
	var urls []string
	h := replayURLs(&urls)
	h.Batch = func([]dw.MemberSpec, string, []dw.FactRow) error { t.Fatal("batch re-applied"); return nil }
	if n, err = s2.Replay(2, h); err != nil {
		t.Fatal(err)
	}
	if n != 1 || !reflect.DeepEqual(urls, []string{"http://w/mad"}) {
		t.Fatalf("gated replay applied %d records (%v), want only the last", n, urls)
	}
	// Gating at the current head applies nothing.
	if n, err := s2.Replay(3, ReplayHandlers{}); err != nil || n != 0 {
		t.Fatalf("replay past head: n=%d err=%v", n, err)
	}
}

func TestSnapshotResetsWALOnlyWhenCovered(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.LogDocuments([]ir.Document{ir.Document{URL: "u1", Text: "One sentence."}}); err != nil {
		t.Fatal(err)
	}

	// Snapshot covering the whole log: WAL resets, sequence continues.
	state := buildTestState(t)
	state.WALSeq = s.Seq()
	info, err := s.WriteSnapshot(state)
	if err != nil {
		t.Fatal(err)
	}
	if !info.WALReset {
		t.Fatal("covering snapshot did not reset the WAL")
	}
	if data, _ := os.ReadFile(filepath.Join(dir, walName)); len(data) != 0 {
		t.Fatalf("WAL not empty after reset: %d bytes", len(data))
	}
	if err := s.LogDocuments([]ir.Document{ir.Document{URL: "u2", Text: "Two sentences. Here now."}}); err != nil {
		t.Fatal(err)
	}
	if s.Seq() != 2 {
		t.Fatalf("sequence restarted after WAL reset: %d", s.Seq())
	}

	// Snapshot exported before the latest record: WAL must survive.
	stale := buildTestState(t)
	stale.WALSeq = 1
	info, err = s.WriteSnapshot(stale)
	if err != nil {
		t.Fatal(err)
	}
	if info.WALReset {
		t.Fatal("stale snapshot reset a WAL holding newer records")
	}
	n, err := s.Replay(1, ReplayHandlers{Documents: func([]ir.Document) error { return nil }})
	if err != nil || n != 1 {
		t.Fatalf("tail record lost: n=%d err=%v", n, err)
	}
}

// TestSeqFloorSurvivesWALReset pins the crash window after a covering
// snapshot: the WAL is empty, so the sequence floor must come from the
// snapshot (its filename carries the covered WALSeq) — otherwise a
// reopened store would reissue already-covered sequence numbers and the
// gate would skip fresh records.
func TestSeqFloorSurvivesWALReset(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.LogDocuments([]ir.Document{ir.Document{URL: "u", Text: "Some text."}}); err != nil {
			t.Fatal(err)
		}
	}
	state := buildTestState(t)
	state.WALSeq = s.Seq()
	if info, err := s.WriteSnapshot(state); err != nil || !info.WALReset {
		t.Fatalf("covering snapshot: %+v err=%v", info, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Seq() != 3 {
		t.Fatalf("reopened seq floor = %d, want 3 (from the snapshot filename)", s2.Seq())
	}
	// A record appended now must be strictly above the snapshot's gate.
	if err := s2.LogDocuments([]ir.Document{ir.Document{URL: "u4", Text: "Fresh text."}}); err != nil {
		t.Fatal(err)
	}
	n, err := s2.Replay(3, ReplayHandlers{Documents: func([]ir.Document) error { return nil }})
	if err != nil || n != 1 {
		t.Fatalf("fresh record gated away: n=%d err=%v", n, err)
	}
}

// TestSizeHintBoundsImage pins that EncodeState's buffer is sized, not
// grown: on a state whose image is several times the hint's fixed
// slack, the image still fits the capacity sizeHint reserves.
func TestSizeHintBoundsImage(t *testing.T) {
	state := buildTestState(t)
	wh, err := dw.New(testSchema())
	if err != nil {
		t.Fatal(err)
	}
	specs := []dw.MemberSpec{{Dim: "City", Level: "Country", Name: "Spain"}, {Dim: "City", Level: "City", Name: "Barcelona", Parent: "Spain"}}
	var rows []dw.FactRow
	var docs []ir.Document
	for d := 0; d < 1200; d++ {
		month, day := fmt.Sprintf("2004-%02d", d/28+1), fmt.Sprintf("2004-%02d-%02d", d/28+1, d%28+1)
		specs = append(specs, dw.MemberSpec{Dim: "Date", Level: "Month", Name: month}, dw.MemberSpec{Dim: "Date", Level: "Day", Name: day, Parent: month})
		url := "http://w/bcn/" + day
		rows = append(rows, dw.FactRow{Coords: map[string]string{"City": "Barcelona", "Date": day},
			Measures: map[string]float64{"TempC": float64(d % 30)}, Provenance: url})
		docs = append(docs, ir.Document{URL: url, Text: fmt.Sprintf(
			"On %s Barcelona reached %d degrees. The sea breeze kept the evening mild. Rain fell on day %d of the series.", day, d%30, d)})
	}
	if err := wh.AddBatch(specs, "Weather", rows); err != nil {
		t.Fatal(err)
	}
	ix := ir.NewIndex()
	if err := ix.AddBatch(docs); err != nil {
		t.Fatal(err)
	}
	state.DW, state.IR = wh.Export(), ix.Export()

	data, hint := EncodeState(state), sizeHint(state)
	if len(data) < 4*(1<<16) {
		t.Fatalf("test image is only %d bytes; it must dwarf the hint's fixed slack", len(data))
	}
	if len(data) > hint {
		t.Fatalf("encoded image is %d bytes, over the %d-byte hint: EncodeState re-grows its buffer", len(data), hint)
	}
}
