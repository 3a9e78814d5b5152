package shard

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"dwqa/internal/ir"
	"dwqa/internal/store"
)

// Federated retrieval over the sharded passage index. Ranking stays
// byte-identical to one big index: every shard reports its local corpus
// statistics (TermStats), the coordinator sums them into global idf
// weights (GlobalIDF), each shard scores its own postings with those
// weights (SearchWeighted), and the partial top-k lists merge on
// (score desc, global document ordinal asc, window start asc) — the
// same total order the single index's (score desc, passage id asc)
// contract induces, because passage ids ascend by (ingest order,
// window start) and ordinals record ingest order globally.

// AddDocument routes a document by key, assigns it the next cluster
// ordinal and indexes it on its shard. The single ingest writer
// serialises through the cluster lock, so ordinals are dense and in
// ingest order — the property the federated tie-break relies on.
func (c *Cluster) AddDocument(doc ir.Document, key string) error {
	if c.n == 1 {
		return c.Node(0).IX.AddBatch([]ir.Document{doc})
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.hashShard(key)
	node := c.Node(s)
	doc.Ord = c.nextOrd
	if err := node.IX.AddBatch([]ir.Document{doc}); err != nil {
		return err
	}
	c.ordDoc[doc.Ord] = [2]int{s, node.IX.DocCount() - 1}
	c.nextOrd++
	return nil
}

// HasURL reports whether any shard has indexed this URL.
func (c *Cluster) HasURL(url string) bool {
	for i := 0; i < c.n; i++ {
		if c.Node(i).IX.HasURL(url) {
			return true
		}
	}
	return false
}

// ReplayHandlers returns the WAL apply handlers for shard i's current
// node — the one replay path leader recovery and the follower tail
// share. A warehouse batch re-commits through the node's AddBatch. A
// document batch re-indexes through the index's AddBatch and registers
// each document's (ordinal → shard, local index) placement; the ordinals
// were assigned at original ingest and persisted in the record. The
// cluster lock spans both, as in AddDocument, so a reader resolving an
// ordinal never sees a document the map does not know yet. Resolve the
// handlers per replay: a follower's snapshot reload swaps the node.
func (c *Cluster) ReplayHandlers(i int) store.ReplayHandlers {
	node := c.Node(i)
	if c.n == 1 {
		return store.ReplayHandlers{Batch: node.WH.AddBatch, Documents: node.IX.AddBatch}
	}
	return store.ReplayHandlers{
		Batch: node.WH.AddBatch,
		Documents: func(docs []ir.Document) error {
			c.mu.Lock()
			defer c.mu.Unlock()
			base := node.IX.DocCount()
			if err := node.IX.AddBatch(docs); err != nil {
				return err
			}
			for j, doc := range docs {
				c.ordDoc[doc.Ord] = [2]int{i, base + j}
				if doc.Ord >= c.nextOrd {
					c.nextOrd = doc.Ord + 1
				}
			}
			return nil
		},
	}
}

// ReindexShard rebuilds shard i's ordinal entries from its index — the
// follower's post-reload step and the leader's post-recovery step. Any
// stale entries pointing at shard i are dropped first.
func (c *Cluster) ReindexShard(i int) error {
	if c.n == 1 {
		return nil
	}
	node := c.Node(i)
	c.mu.Lock()
	defer c.mu.Unlock()
	for ord, loc := range c.ordDoc {
		if loc[0] == i {
			delete(c.ordDoc, ord)
		}
	}
	for local := 0; local < node.IX.DocCount(); local++ {
		doc, err := node.IX.Document(local)
		if err != nil {
			return err
		}
		c.ordDoc[doc.Ord] = [2]int{i, local}
		if doc.Ord >= c.nextOrd {
			c.nextOrd = doc.Ord + 1
		}
	}
	return nil
}

// DocCount sums indexed documents across shards.
func (c *Cluster) DocCount() int {
	total := 0
	for i := 0; i < c.n; i++ {
		total += c.Node(i).IX.DocCount()
	}
	return total
}

// PassageCount sums passage windows across shards.
func (c *Cluster) PassageCount() int {
	total := 0
	for i := 0; i < c.n; i++ {
		total += c.Node(i).IX.PassageCount()
	}
	return total
}

// Document resolves a global ordinal to its document — the retrieval
// contract consumers (qa's location extraction) hold after Search
// rewrote DocIndex to the ordinal.
func (c *Cluster) Document(i int) (ir.Document, error) {
	if c.n == 1 {
		return c.Node(0).IX.Document(i)
	}
	c.mu.RLock()
	loc, ok := c.ordDoc[int64(i)]
	c.mu.RUnlock()
	if !ok {
		return ir.Document{}, fmt.Errorf("shard: document ordinal %d unknown", i)
	}
	return c.Node(loc[0]).IX.Document(loc[1])
}

// Search runs the two-round federated search: gather per-shard term
// statistics, derive global idf, scatter the weighted search, merge.
// Returned passages carry the global ordinal in DocIndex (and DocOrd),
// so downstream consumers address documents through Cluster.Document
// exactly as they would a single index.
func (c *Cluster) Search(terms []string, k int) []ir.Passage {
	if c.n == 1 {
		return c.Node(0).IX.Search(terms, k)
	}
	if len(terms) == 0 || k <= 0 {
		return nil
	}
	type stats struct {
		nPass int
		df    []int
	}
	local := make([]stats, c.n)
	nodes := make([]*Node, c.n)
	fanout := c.fanout.Load()
	var wg sync.WaitGroup
	for i := 0; i < c.n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var start time.Time
			if fanout != nil {
				start = time.Now()
			}
			// Pin the node for both rounds so a follower swap between
			// them cannot mix one state's statistics with another's
			// postings.
			nodes[i] = c.Node(i)
			local[i].nPass, local[i].df = nodes[i].IX.TermStats(terms)
			if fanout != nil {
				fanout.Observe(time.Since(start))
			}
		}(i)
	}
	wg.Wait()

	nPass := 0
	df := make([]int, len(terms))
	for i := 0; i < c.n; i++ {
		nPass += local[i].nPass
		for t, d := range local[i].df {
			df[t] += d
		}
	}
	idf := ir.GlobalIDF(nPass, df)

	parts := make([][]ir.Passage, c.n)
	for i := 0; i < c.n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var start time.Time
			if fanout != nil {
				start = time.Now()
			}
			parts[i] = nodes[i].IX.SearchWeighted(terms, idf, k)
			if fanout != nil {
				fanout.Observe(time.Since(start))
			}
		}(i)
	}
	wg.Wait()
	return mergeTopK(parts, k)
}

// mergeTopK merges per-shard ranked lists into the global top-k under
// the single-index order: score descending, ties by ascending document
// ordinal then window start. Each shard's list already holds its local
// top-k, and the global top-k is a subset of their union.
func mergeTopK(parts [][]ir.Passage, k int) []ir.Passage {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	if total == 0 {
		return nil
	}
	all := make([]ir.Passage, 0, total)
	for _, p := range parts {
		all = append(all, p...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score > all[j].Score
		}
		if all[i].DocOrd != all[j].DocOrd {
			return all[i].DocOrd < all[j].DocOrd
		}
		return all[i].SentStart < all[j].SentStart
	})
	if len(all) > k {
		all = all[:k]
	}
	rewriteOrdinals(all)
	return all
}

// AllPassages materializes every shard's passages in global ingest
// order — (ordinal, window start) ascending reproduces the single
// index's passage-id order.
func (c *Cluster) AllPassages() []ir.Passage {
	if c.n == 1 {
		return c.Node(0).IX.AllPassages()
	}
	var all []ir.Passage
	for i := 0; i < c.n; i++ {
		all = append(all, c.Node(i).IX.AllPassages()...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].DocOrd != all[j].DocOrd {
			return all[i].DocOrd < all[j].DocOrd
		}
		return all[i].SentStart < all[j].SentStart
	})
	rewriteOrdinals(all)
	return all
}

// rewriteOrdinals replaces each passage's shard-local document index
// with its global ordinal, the address Cluster.Document resolves.
func rewriteOrdinals(ps []ir.Passage) {
	for i := range ps {
		ps[i].DocIndex = int(ps[i].DocOrd)
	}
}
