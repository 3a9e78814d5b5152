package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"dwqa/internal/store"
)

// Digests of the post-Integrate warehouse at DefaultConfig, pinned so any
// change to how the scenario is written into the warehouse — member
// order, surrogate keys, row order, the per-shard split — shows up as a
// byte difference. Only the snapshot's warehouse section is hashed, so
// the golden does not move when the index or the ontology changes.
const (
	goldenSingleNodeDW = "5bb64c5412b4797903515f4ccc1971025fb829a48f5b1906a497bab898b3be44"
	goldenShard0DW     = "4eac68bc5312073953e5b1b4482ba972ff04e020b451cb14c77ce84c6f53ffb4"
	goldenShard1DW     = "23ab84e917ab1e236b33a36f6c965c949ce9e045802f2beef80b7227d7a91690"
)

// warehouseSectionDigest hashes the warehouse section of a snapshot
// image, located through the snapshot's section table (magic, one-byte
// version, then one little-endian u64 offset per section).
func warehouseSectionDigest(t *testing.T, st *store.State) string {
	t.Helper()
	buf := store.EncodeState(st)
	table := len("DWQASNAP") + 1
	from := binary.LittleEndian.Uint64(buf[table:])
	to := binary.LittleEndian.Uint64(buf[table+8:])
	if from >= to || to > uint64(len(buf)) {
		t.Fatalf("bad section table: dw section [%d, %d) in %d bytes", from, to, len(buf))
	}
	sum := sha256.Sum256(buf[from:to])
	return hex.EncodeToString(sum[:])
}

func TestPopulatedWarehouseDigest(t *testing.T) {
	p := newPipeline(t)
	if err := p.Integrate(); err != nil {
		t.Fatal(err)
	}
	st, err := p.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if got := warehouseSectionDigest(t, st); got != goldenSingleNodeDW {
		t.Errorf("single-node warehouse digest = %s, want %s", got, goldenSingleNodeDW)
	}

	sp, err := NewShardedPipeline(DefaultConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.Integrate(); err != nil {
		t.Fatal(err)
	}
	for i, st := range sp.ExportShardStates() {
		st.Onto = sp.Ontology.Export()
		want := []string{goldenShard0DW, goldenShard1DW}[i]
		if got := warehouseSectionDigest(t, st); got != want {
			t.Errorf("shard %d warehouse digest = %s, want %s", i, got, want)
		}
	}
}

// goldenFedImage is the SHA-256 of the whole snapshot image — warehouse,
// index (document ordinals included) and ontology — of the integrated
// and fed DefaultConfig pipeline, so a drift in any section of the
// single-node layout shows up, not only in the warehouse.
const goldenFedImage = "ad0d8ab31a52d279ece262487c1a25bb18e211e147a103a596ab852a23e3cfb9"

func TestFedSnapshotImageDigest(t *testing.T) {
	p := runAll(t)
	st, err := p.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(store.EncodeState(st))
	if got := hex.EncodeToString(sum[:]); got != goldenFedImage {
		t.Errorf("fed snapshot image digest = %s, want %s", got, goldenFedImage)
	}
}
