package etl

import (
	"path/filepath"
	"testing"

	"dwqa/internal/dw"
	"dwqa/internal/qa"
	"dwqa/internal/store"
)

// These tests pin the two PR-7 loader bugfixes: the two-phase-commit
// hole (members durably committed while the fact append failed, dedup
// keys abandoned) and the dedup-key case mismatch (the key lowercased
// the city while the member kept the raw form).

func TestCanonicalCity(t *testing.T) {
	cases := []struct{ in, want string }{
		{"barcelona", "Barcelona"},
		{"Barcelona", "Barcelona"},
		{"new york", "New York"},
		{"  new   york  ", "New York"},
		{"el prat", "El Prat"},
		// Shouted words fold down to the member form the feed path
		// mints — "BARCELONA" harvested from a headline and "barcelona"
		// from running text are the same City member (and the NL→OLAP
		// grounding resolves both to the same filter value).
		{"BARCELONA", "Barcelona"},
		{"NEW YORK", "New York"},
		// Mixed-case words are not shouting: interior capitals survive.
		{"McMurdo", "McMurdo"},
		{"O'Hare", "O'Hare"},
		// A single letter is not shouting either ("A Coruña").
		{"A coruña", "A Coruña"},
		{"", ""},
		{"   ", ""},
	}
	for _, c := range cases {
		if got := CanonicalCity(c.in); got != c.want {
			t.Errorf("CanonicalCity(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestLoadDedupCanonicalCityCase pins the case-mismatch fix: answers
// naming the same city in different letter cases deduplicate against
// each other AND create exactly one dimension member, whose name equals
// the canonical form the dedup key used. Before the fix the key
// lowercased the city while the member kept the raw per-answer form, so
// the member table's casing depended on answer order and never matched
// the key.
func TestLoadDedupCanonicalCityCase(t *testing.T) {
	l, wh := newLoader(t)
	rep, err := l.Load([]qa.Answer{
		answer(8, "C", "barcelona", 2004, 1, 31),
		answer(8, "C", "Barcelona", 2004, 1, 31),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Loaded != 1 || rep.Skipped != 1 {
		t.Fatalf("loaded %d, skipped %d; want 1 and 1", rep.Loaded, rep.Skipped)
	}
	if members := wh.Members("City", "City"); len(members) != 1 || members[0] != "Barcelona" {
		t.Fatalf("City members = %v, want exactly [Barcelona]", members)
	}
	if n := wh.FactCount("Weather"); n != 1 {
		t.Fatalf("fact rows = %d, want 1", n)
	}
	// The canonical key also holds across calls (the Loader-lifetime
	// dedup map).
	rep, err = l.Load([]qa.Answer{answer(8, "C", "barcelona", 2004, 1, 31)})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Loaded != 0 || rep.Skipped != 1 {
		t.Fatalf("cross-call: loaded %d, skipped %d; want 0 and 1", rep.Loaded, rep.Skipped)
	}
}

// TestRestoreDedupMatchesCanonicalMembers pins the restore half of the
// fix: dedup keys rebuilt from warehouse provenance must equal the keys
// live loads write, or a recovered boot would re-load every record. The
// member names in the warehouse are canonical by construction, so
// RestoreDedup must NOT case-fold them.
func TestRestoreDedupMatchesCanonicalMembers(t *testing.T) {
	l, wh := newLoader(t)
	if _, err := l.Load([]qa.Answer{
		answer(8, "C", "barcelona", 2004, 1, 31),
		answer(5, "C", "new york", 2004, 1, 30),
	}); err != nil {
		t.Fatal(err)
	}
	// A second loader over the same warehouse (the recovery path).
	l2, err := NewLoader(nil, wh, "Weather", "City", "Date")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l2.RestoreDedup(); err != nil {
		t.Fatal(err)
	}
	rep, err := l2.Load([]qa.Answer{
		answer(8, "C", "Barcelona", 2004, 1, 31),
		answer(5, "C", "New York", 2004, 1, 30),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Loaded != 0 || rep.Skipped != 2 {
		t.Fatalf("restored loader: loaded %d, skipped %d; want 0 and 2", rep.Loaded, rep.Skipped)
	}
}

// TestLoadAllAtomicOnJournalFailure pins the partial-commit fix with a
// real store on a fault-injected filesystem: when the WAL refuses the
// feed, NOTHING lands — no members, no rows, no dedup marks — and the
// identical retry after the disk recovers loads everything. Before the
// fix, the feed's members committed durably before its rows failed,
// leaving members without rows and dedup keys abandoned in limbo.
func TestLoadAllAtomicOnJournalFailure(t *testing.T) {
	ffs := store.NewFaultFS(store.OS())
	st, err := store.OpenFS(filepath.Join(t.TempDir(), "data"), ffs)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	wh, err := dw.New(weatherSchema())
	if err != nil {
		t.Fatal(err)
	}
	wh.SetJournal(st)
	l, err := NewLoader(axiomOntology(t), wh, "Weather", "City", "Date")
	if err != nil {
		t.Fatal(err)
	}

	batch := [][]qa.Answer{
		{answer(8, "C", "Barcelona", 2004, 1, 31), answer(5, "C", "Madrid", 2004, 1, 30)},
		{answer(2, "C", "New York", 2004, 2, 1)},
	}
	membersBefore, rowsBefore := wh.Counts()

	// The feed's single WAL append fails at fsync.
	ffs.Arm(store.Fault{Op: store.OpSync, Nth: 1})
	if _, _, _, err := l.LoadAll(batch); err == nil {
		t.Fatal("feed must fail when the WAL refuses the commit")
	}
	if ffs.Fired() == 0 {
		t.Fatal("fault never fired; the test exercised nothing")
	}
	ffs.Disarm()

	// Atomicity: the failed feed left no trace.
	if m, r := wh.Counts(); m != membersBefore || r != rowsBefore {
		t.Fatalf("failed feed left state: members %d→%d, rows %d→%d", membersBefore, m, rowsBefore, r)
	}
	if got := wh.Members("City", "City"); len(got) != 0 {
		t.Fatalf("failed feed committed members: %v", got)
	}

	// The identical retry loads everything — the dedup keys were not
	// burned by the failed attempt.
	reports, total, touched, err := l.LoadAll(batch)
	if err != nil {
		t.Fatal(err)
	}
	if total.Loaded != 3 || total.Skipped != 0 {
		t.Fatalf("retry loaded %d / skipped %d, want 3 / 0", total.Loaded, total.Skipped)
	}
	if reports[0].Loaded != 2 || reports[1].Loaded != 1 {
		t.Fatalf("per-batch loads = %d, %d; want 2, 1", reports[0].Loaded, reports[1].Loaded)
	}
	if wh.FactCount("Weather") != 3 {
		t.Fatalf("fact rows = %d, want 3", wh.FactCount("Weather"))
	}
	if touched.Empty() {
		t.Fatal("successful feed must report its write footprint")
	}
}

// TestLoadAllTouchedFootprint pins the Touched contract the serving
// cache's selective invalidation depends on: every committed member
// (with ancestors), the fed fact, and — crucially — an EMPTY footprint
// when the whole feed deduplicates away.
func TestLoadAllTouchedFootprint(t *testing.T) {
	l, wh := newLoader(t)
	// Pre-build a City hierarchy so the ancestor walk has somewhere to
	// go: Barcelona rolls up to Spain.
	if err := wh.AddBatch([]dw.MemberSpec{
		{Dim: "City", Level: "Country", Name: "Spain"},
		{Dim: "City", Level: "City", Name: "Barcelona", Parent: "Spain"},
	}, "", nil); err != nil {
		t.Fatal(err)
	}

	_, _, touched, err := l.LoadAll([][]qa.Answer{{answer(8, "C", "Barcelona", 2004, 1, 31)}})
	if err != nil {
		t.Fatal(err)
	}
	want := map[TouchedMember]bool{
		{Dim: "Date", Level: "Year", Name: "2004"}:      true,
		{Dim: "Date", Level: "Month", Name: "2004-01"}:  true,
		{Dim: "Date", Level: "Day", Name: "2004-01-31"}: true,
		{Dim: "City", Level: "City", Name: "Barcelona"}: true,
		{Dim: "City", Level: "Country", Name: "Spain"}:  true, // ancestor closure
	}
	got := map[TouchedMember]bool{}
	for _, m := range touched.Members {
		got[m] = true
	}
	for m := range want {
		if !got[m] {
			t.Errorf("touched members missing %+v (got %+v)", m, touched.Members)
		}
	}
	if len(touched.Facts) != 1 || touched.Facts[0] != "Weather" {
		t.Errorf("touched facts = %v, want [Weather]", touched.Facts)
	}

	// The identical feed again: everything dedups, nothing was touched.
	_, _, touched, err = l.LoadAll([][]qa.Answer{{answer(8, "C", "Barcelona", 2004, 1, 31)}})
	if err != nil {
		t.Fatal(err)
	}
	if !touched.Empty() {
		t.Errorf("all-duplicate feed reported a footprint: %+v / %v", touched.Members, touched.Facts)
	}

	// An all-rejected feed likewise.
	_, _, touched, err = l.LoadAll([][]qa.Answer{{{HasValue: false}}})
	if err != nil {
		t.Fatal(err)
	}
	if !touched.Empty() {
		t.Errorf("all-rejected feed reported a footprint: %+v / %v", touched.Members, touched.Facts)
	}
}
