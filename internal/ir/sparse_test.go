package ir

import "testing"

// TestSparseAccEpochWrap exercises the uint32 epoch wrap: stamps from
// 2^32 queries ago must be cleared instead of aliasing as live.
func TestSparseAccEpochWrap(t *testing.T) {
	a := &sparseAcc{stamp: make([]uint32, 4), scores: make([]float64, 4)}
	a.epoch = ^uint32(0) - 1

	a.begin() // epoch = max uint32
	a.add(2, 2.5)
	if len(a.touched) != 1 || a.scores[2] != 2.5 {
		t.Fatalf("pre-wrap add: touched=%v scores=%v", a.touched, a.scores)
	}

	a.begin() // wraps: stamps cleared, epoch restarts at 1
	if a.epoch != 1 {
		t.Fatalf("epoch after wrap = %d, want 1", a.epoch)
	}
	for i, s := range a.stamp {
		if s != 0 {
			t.Fatalf("stamp[%d] = %d after wrap, want 0", i, s)
		}
	}
	// The slot touched before the wrap must register as fresh.
	a.add(2, 1.0)
	if len(a.touched) != 1 || a.scores[2] != 1.0 {
		t.Fatalf("post-wrap add not fresh: touched=%v score=%v", a.touched, a.scores[2])
	}
	if got := a.rank(5); len(got) != 1 || got[0] != 2 {
		t.Fatalf("rank after wrap = %v, want [2]", got)
	}
}

func TestTermCount(t *testing.T) {
	if got := NewIndex().TermCount(); got != 0 {
		t.Errorf("empty index TermCount = %d", got)
	}
	ix := newTestIndex(t)
	if got := ix.TermCount(); got == 0 {
		t.Error("populated index has no terms")
	}
	// Interning is stable: re-adding vocabulary does not mint new ids.
	before := ix.TermCount()
	if err := ix.AddBatch(testDocs()[:1]); err != nil {
		t.Fatal(err)
	}
	if got := ix.TermCount(); got != before {
		t.Errorf("TermCount grew from %d to %d on repeated vocabulary", before, got)
	}
}
