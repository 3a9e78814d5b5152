package shard

import (
	"fmt"
	"path/filepath"

	"dwqa/internal/ontology"
	"dwqa/internal/store"
)

// Leader-side durability: an N-shard cluster persists one store per
// shard (root/shard-000, shard-001, …), each with its own WAL and
// snapshot chain. A shard's journals attach to its own store, so every
// shard's WAL records exactly what that shard applied — which is what
// lets a replica rebuild any single shard independently. A 1-shard
// cluster keeps its one store in the root itself: the single-node
// layout, byte for byte.

// ShardDir returns shard i's data directory under the root of an
// n-shard cluster: the root itself when n is 1.
func ShardDir(root string, i, n int) string {
	if n == 1 {
		return root
	}
	return filepath.Join(root, fmt.Sprintf("shard-%03d", i))
}

// DetectShards reports how many shards a cluster directory was created
// with by counting its contiguous shard-NNN subdirectories, so CLIs can
// reopen or follow a cluster without the operator restating -shards.
// A root with no shard directories (fresh path, or the single-node
// layout a 1-shard cluster keeps in the root) reports 0. A gap in the
// numbering is an error: it means the directory was hand-edited and any
// shard count would silently drop part of the data. So is a lone
// shard-000: the layout an earlier 1-shard cluster wrote, which this
// one no longer reads.
func DetectShards(fsys store.FS, root string) (int, error) {
	matches, err := fsys.Glob(filepath.Join(root, "shard-[0-9][0-9][0-9]"))
	if err != nil {
		return 0, err
	}
	found := make(map[int]bool, len(matches))
	for _, m := range matches {
		var i int
		if _, err := fmt.Sscanf(filepath.Base(m), "shard-%03d", &i); err == nil {
			found[i] = true
		}
	}
	n := 0
	for found[n] {
		n++
	}
	if n != len(found) {
		return 0, fmt.Errorf("shard: %s holds a non-contiguous shard layout (%d shard dirs, contiguous run stops at %d)", root, len(found), n)
	}
	if n == 1 {
		return 0, fmt.Errorf("shard: %s holds a 1-shard cluster in shard-000/, a layout no longer read; a 1-shard cluster keeps its store in the root: move the contents of %s into %s", root, filepath.Join(root, "shard-000"), root)
	}
	return n, nil
}

// Durable wires a cluster to its per-shard stores and implements the
// engine's Snapshotter: state export for all shards happens under the
// engine's feed quiescence, the disk writes after it.
type Durable struct {
	c           *Cluster
	root        string
	stores      []*store.Store
	onto        *ontology.Ontology
	fingerprint string
}

// NewDurable binds the cluster to its opened per-shard stores. onto is
// the (replicated) domain ontology embedded in every shard's snapshot,
// so any single shard's snapshot can bootstrap a full serving stack;
// fingerprint is the cluster-level config fingerprint (per-shard
// fingerprints derive from it via ShardFingerprint).
func NewDurable(c *Cluster, root string, stores []*store.Store, onto *ontology.Ontology, fingerprint string) (*Durable, error) {
	if len(stores) != c.Shards() {
		return nil, fmt.Errorf("shard: %d stores for %d shards", len(stores), c.Shards())
	}
	return &Durable{c: c, root: root, stores: stores, onto: onto, fingerprint: fingerprint}, nil
}

// ShardFingerprint stamps the cluster fingerprint with a shard's
// position, so a shard's snapshot refuses to load into the wrong slot
// or a different topology. A 1-shard cluster's one store keeps the
// unstamped fingerprint of the single-node layout.
func ShardFingerprint(fingerprint string, i, n int) string {
	if n == 1 {
		return fingerprint
	}
	return fmt.Sprintf("%s shard=%d/%d", fingerprint, i, n)
}

// Stores returns the per-shard stores in shard order.
func (d *Durable) Stores() []*store.Store { return d.stores }

// AttachJournals wires each shard's warehouse and index journal to its
// store. Must be called only after any boot replay has finished, or
// replayed records would be re-logged.
func (d *Durable) AttachJournals() {
	for i, st := range d.stores {
		node := d.c.Node(i)
		node.WH.SetJournal(st)
		node.IX.SetJournal(st)
	}
}

// ExportForSnapshot captures every shard's state — the engine calls
// this with feed commits quiesced, so each shard's export and its WAL
// sequence stamp are mutually consistent — and returns a publish
// closure that writes all N snapshots unlocked. The aggregate info
// reports the cluster root, summed bytes and the highest shard
// sequence; a 1-shard cluster reports its one snapshot as written.
func (d *Durable) ExportForSnapshot() (func() (store.SnapshotInfo, error), error) {
	states := make([]*store.State, d.c.Shards())
	for i := range d.stores {
		node := d.c.Node(i)
		states[i] = &store.State{
			WALSeq:      d.stores[i].Seq(),
			Fingerprint: ShardFingerprint(d.fingerprint, i, d.c.Shards()),
			DW:          node.WH.Export(),
			IR:          node.IX.Export(),
			Onto:        d.onto.Export(),
		}
	}
	publish := func() (store.SnapshotInfo, error) {
		agg := store.SnapshotInfo{Path: d.root, WALReset: true}
		for i, st := range d.stores {
			info, err := st.WriteSnapshot(states[i])
			if len(d.stores) == 1 {
				return info, err
			}
			if err != nil {
				return store.SnapshotInfo{}, fmt.Errorf("shard %d: %w", i, err)
			}
			agg.Bytes += info.Bytes
			if info.WALSeq > agg.WALSeq {
				agg.WALSeq = info.WALSeq
			}
			agg.WALReset = agg.WALReset && info.WALReset
		}
		return agg, nil
	}
	return publish, nil
}

// Seq returns the highest WAL sequence across shards.
func (d *Durable) Seq() uint64 {
	var max uint64
	for _, st := range d.stores {
		if s := st.Seq(); s > max {
			max = s
		}
	}
	return max
}

// WALErrors sums refused journal appends across shards.
func (d *Durable) WALErrors() uint64 {
	var total uint64
	for _, st := range d.stores {
		total += st.WALErrors()
	}
	return total
}

// StateCounts reports the cluster's warehouse sizing for serving stats.
func (d *Durable) StateCounts() (members, factRows int) { return d.c.Counts() }

// ShardSeqs returns each shard's current WAL sequence in shard order —
// the leader's per-shard stats (lag is zero by definition on the
// writer).
func (d *Durable) ShardSeqs() []uint64 {
	seqs := make([]uint64, len(d.stores))
	for i, st := range d.stores {
		seqs[i] = st.Seq()
	}
	return seqs
}

// Close closes every shard store, keeping the first error.
func (d *Durable) Close() error {
	var first error
	for _, st := range d.stores {
		if err := st.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
