// Package shard partitions the warehouse/index stack across N shards by
// city-dimension hash and serves scatter/gather queries over them with
// answers byte-identical to a single-node deployment (DESIGN.md §10).
//
// Partitioning discipline: dimensions are replicated — every AddBatch
// applies its member specs on all shards in the same order, so member
// keys are identical everywhere and any shard can validate or describe
// a query. Fact rows are partitioned — each row hashes by the city its
// routing role rolls up to (FNV-1a of the member name, mod N), so a
// city's rows, whatever fact they belong to, land on one shard.
// Documents are partitioned the same way by a caller-supplied routing
// key, with a cluster-wide ordinal (ir.Document.Ord) assigned at ingest
// so federated ranking can break ties exactly as one big index would.
//
// Reads scatter to all shards and merge deterministically: OLAP plans
// through dw.ExecuteCells/MergeCells, IR searches through the
// global-statistics protocol in ir/federate.go. Single-writer
// discipline: one process feeds the cluster; replicas (follower.go)
// open shipped snapshots and tail the WAL read-only.
//
// A 1-shard cluster is its node: writes, reads and replay go straight
// to shard 0's warehouse and index — no routing, no ordinals, no
// scatter round — so the single-node deployment runs the code a bare
// warehouse and index run, and its documents keep the ordinal 0 they
// were indexed with.
package shard

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dwqa/internal/dw"
	"dwqa/internal/ir"
	"dwqa/internal/mdm"
	"dwqa/internal/obs"
	"dwqa/internal/store"
)

// Node is one shard's stack: its slice of the fact columns and of the
// passage index. Followers swap whole Nodes atomically on snapshot
// reload, so everything derived from one shard's state hangs off the
// struct a single pointer load returns.
type Node struct {
	WH *dw.Warehouse
	IX *ir.Index
}

// Route names, per fact, the role whose coordinate places a row: the
// row hashes by the member its Role coordinate rolls up to at Level.
// The paper's schema routes Weather by City@City (the coordinate is the
// city) and LastMinuteSales by Destination@City (the destination
// airport's city), so a city's weather and its inbound sales co-locate.
type Route struct {
	Role  string
	Level string
}

// Cluster is the scatter/gather coordinator over N shards. It satisfies
// the warehouse surface the rest of the stack consumes (etl.Warehouse,
// nl2olap.Warehouse, the scenario population) and the retrieval surface
// (qa.Retriever, engine.CorpusStats), so a Pipeline-shaped stack runs
// over it unchanged.
type Cluster struct {
	schema *mdm.Schema
	routes map[string]Route
	n      int
	irOpts []ir.Option

	// nodes are atomic so a follower's tail loop can swap a shard's
	// whole state under readers when it falls behind a snapshot.
	nodes []atomic.Pointer[Node]

	// mu guards the ordinal map and counter. ordDoc resolves a global
	// document ordinal to (shard, local index) — the read path's
	// Document(ord) and the leader's ingest both go through it.
	mu      sync.RWMutex
	ordDoc  map[int64][2]int
	nextOrd int64

	// fanout, when set, observes each shard's wall-clock contribution to
	// every scatter round (both Search rounds and Execute) — the
	// straggler detector. Swapped atomically so scatter goroutines never
	// lock to read it; nil means no observation and no clock readings.
	fanout atomic.Pointer[obs.Histogram]

	// metMu serialises SetMetrics against SetNode, so a node a follower
	// swaps in always counts into the current dwMet.
	metMu sync.Mutex
	dwMet dw.Metrics
}

// SetFanoutHistogram attaches (or, with nil, detaches) the per-shard
// scatter latency histogram. Safe to call while queries are in flight.
func (c *Cluster) SetFanoutHistogram(h *obs.Histogram) {
	c.fanout.Store(h)
}

// NewCluster builds an n-shard cluster over the schema. Every shard gets
// its own warehouse and index; irOpts configure each shard's index
// identically (passage size and stride must match the single-node
// deployment for answers to be comparable).
func NewCluster(schema *mdm.Schema, n int, routes map[string]Route, irOpts ...ir.Option) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: cluster needs at least 1 shard, got %d", n)
	}
	for fact, r := range routes {
		fc := schema.Fact(fact)
		if fc == nil {
			return nil, fmt.Errorf("shard: route for unknown fact %q", fact)
		}
		ref := fc.Ref(r.Role)
		if ref == nil {
			return nil, fmt.Errorf("shard: fact %q has no role %q", fact, r.Role)
		}
		dim := schema.Dimension(ref.Dimension)
		if dim == nil || dim.PathTo(r.Level) == nil {
			return nil, fmt.Errorf("shard: dimension %q has no roll-up path to level %q", ref.Dimension, r.Level)
		}
	}
	c := &Cluster{
		schema: schema,
		routes: routes,
		n:      n,
		irOpts: irOpts,
		nodes:  make([]atomic.Pointer[Node], n),
		ordDoc: make(map[int64][2]int),
	}
	for i := 0; i < n; i++ {
		wh, err := dw.New(schema)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		c.nodes[i].Store(&Node{WH: wh, IX: ir.NewIndex(irOpts...)})
	}
	return c, nil
}

// Shards returns the shard count.
func (c *Cluster) Shards() int { return c.n }

// Node returns shard i's current stack. Callers must not hold the
// returned pointer across feed boundaries on a follower — reloads swap
// it.
func (c *Cluster) Node(i int) *Node { return c.nodes[i].Load() }

// SetNode swaps shard i's stack — the follower's snapshot-reload path.
// The new warehouse takes the cluster's work counters. The caller must
// rebuild the shard's ordinal entries (ReindexShard) after the swap.
func (c *Cluster) SetNode(i int, n *Node) {
	c.metMu.Lock()
	defer c.metMu.Unlock()
	n.WH.SetMetrics(c.dwMet)
	c.nodes[i].Store(n)
}

// InstallState swaps shard i's node for one bulk-imported from a
// snapshot state and rebuilds its ordinal entries — the restore step
// leader recovery and a follower's reload share. Geometry comes from
// the snapshot.
func (c *Cluster) InstallState(i int, state *store.State) error {
	wh, err := dw.New(c.schema)
	if err != nil {
		return err
	}
	if err := wh.Import(state.DW); err != nil {
		return fmt.Errorf("restoring warehouse: %w", err)
	}
	ix := ir.NewIndex(c.irOpts...)
	if err := ix.Import(state.IR); err != nil {
		return fmt.Errorf("restoring index: %w", err)
	}
	c.SetNode(i, &Node{WH: wh, IX: ix})
	return c.ReindexShard(i)
}

// SetMetrics attaches the warehouse work counters to every shard's
// warehouse, and to any a later SetNode swaps in.
func (c *Cluster) SetMetrics(m dw.Metrics) {
	c.metMu.Lock()
	defer c.metMu.Unlock()
	c.dwMet = m
	for i := range c.nodes {
		c.Node(i).WH.SetMetrics(m)
	}
}

// Schema returns the shared multidimensional schema.
func (c *Cluster) Schema() *mdm.Schema { return c.schema }

// hashShard places a routing key: FNV-1a 64 of the member name, mod N.
// Stable across runs and processes, so a leader and its replicas (and a
// re-seeded equivalence run) agree on placement.
func (c *Cluster) hashShard(key string) int {
	h := fnv.New64a()
	h.Write([]byte(key))
	return int(h.Sum64() % uint64(c.n))
}

// RouteKey resolves the routing member for one fact row: the coordinate
// of the routing role rolled up to the route level. overlay, when
// non-nil, is a pending batch's member specs — rows arriving with the
// members that ground them (AddBatch) must resolve parents that are not
// committed anywhere yet.
func (c *Cluster) RouteKey(fact string, coords map[string]string, overlay []dw.MemberSpec) (string, error) {
	r, ok := c.routes[fact]
	if !ok {
		// Unrouted fact: derive a deterministic key from the full
		// coordinate tuple so placement is still stable.
		keys := make([]string, 0, len(coords))
		for role, name := range coords {
			keys = append(keys, role+"="+name)
		}
		sort.Strings(keys)
		return fact + "\x00" + strings.Join(keys, "\x00"), nil
	}
	ref := c.schema.Fact(fact).Ref(r.Role)
	path := c.schema.Dimension(ref.Dimension).PathTo(r.Level)
	name, ok := coords[r.Role]
	if !ok || name == "" {
		return "", fmt.Errorf("shard: fact %q row missing routing coordinate %q", fact, r.Role)
	}
	// Walk the roll-up chain from the base level to the route level,
	// consulting the pending overlay before the committed dimension.
	for _, level := range path[:len(path)-1] {
		parent := overlayParent(overlay, ref.Dimension, level, name)
		if parent == "" {
			p, err := c.Node(0).WH.ParentName(ref.Dimension, level, name)
			if err != nil {
				return "", fmt.Errorf("shard: routing %q row: %w", fact, err)
			}
			parent = p
		}
		if parent == "" {
			return "", fmt.Errorf("shard: routing %q row: member %q at %s/%s has no parent", fact, name, ref.Dimension, level)
		}
		name = parent
	}
	return name, nil
}

// overlayParent looks up a member's parent in a pending batch's specs.
func overlayParent(specs []dw.MemberSpec, dim, level, name string) string {
	for i := range specs {
		if specs[i].Dim == dim && specs[i].Level == level && specs[i].Name == name {
			return specs[i].Parent
		}
	}
	return ""
}

// --- Writes: members replicated in identical order, rows partitioned ---

// AddBatch is the cluster's only warehouse write, mirroring
// dw.Warehouse.AddBatch: member specs replicate to every shard in the
// same order (so member keys are identical everywhere), fact rows route
// by city with the uncommitted specs as parent overlay. Each shard sees
// (its members, its rows) as one atomic warehouse batch and one WAL
// record. Atomicity is per shard: a failure on shard k leaves shards < k
// committed — the single writer must treat that as fatal, exactly as a
// half-applied WAL would be.
func (c *Cluster) AddBatch(specs []dw.MemberSpec, fact string, rows []dw.FactRow) error {
	if c.n == 1 {
		return c.Node(0).WH.AddBatch(specs, fact, rows)
	}
	groups, err := c.groupRows(fact, rows, specs)
	if err != nil {
		return err
	}
	for i := 0; i < c.n; i++ {
		if err := c.Node(i).WH.AddBatch(specs, fact, groups[i]); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// groupRows partitions rows by routing key, preserving order within
// each shard's slice.
func (c *Cluster) groupRows(fact string, rows []dw.FactRow, overlay []dw.MemberSpec) ([][]dw.FactRow, error) {
	groups := make([][]dw.FactRow, c.n)
	for _, row := range rows {
		key, err := c.RouteKey(fact, row.Coords, overlay)
		if err != nil {
			return nil, err
		}
		s := c.hashShard(key)
		groups[s] = append(groups[s], row)
	}
	return groups, nil
}

// --- Reads: dimension metadata from shard 0, facts scatter/gathered ---

// Validate checks a query against shard 0 (dimensions are replicated,
// so any shard's answer is the cluster's).
func (c *Cluster) Validate(q dw.Query) error { return c.Node(0).WH.Validate(q) }

// Execute scatters the plan to every shard (dw.ExecuteCells), then
// folds the partial cells into one result (dw.MergeCells). The merge is
// deterministic — cells fold in shard order, groups sort exactly as the
// single-node plan sorts them — and the aggregate is applied only after
// the fold, so Avg/Count over partitioned rows match a single warehouse.
func (c *Cluster) Execute(q dw.Query) (*dw.Result, error) {
	if c.n == 1 {
		return c.Node(0).WH.Execute(q)
	}
	parts := make([][]dw.CellRow, c.n)
	errs := make([]error, c.n)
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
			parts[i], errs[i] = c.Node(i).WH.ExecuteCells(q)
			if fanout != nil {
				fanout.Observe(time.Since(start))
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return dw.MergeCells(q, parts), nil
}

// Members returns the sorted member names at a level (replicated; shard
// 0 answers).
func (c *Cluster) Members(dim, level string) []string { return c.Node(0).WH.Members(dim, level) }

// MemberKey resolves a member name to its dense key (identical on every
// shard).
func (c *Cluster) MemberKey(dim, level, name string) (int, error) {
	return c.Node(0).WH.MemberKey(dim, level, name)
}

// Member returns a member by key.
func (c *Cluster) Member(dim, level string, key int) (dw.Member, error) {
	return c.Node(0).WH.Member(dim, level, key)
}

// ParentName returns a member's parent name.
func (c *Cluster) ParentName(dim, level, name string) (string, error) {
	return c.Node(0).WH.ParentName(dim, level, name)
}

// MemberCount returns the member count at a level.
func (c *Cluster) MemberCount(dim, level string) int { return c.Node(0).WH.MemberCount(dim, level) }

// FactCount sums a fact's row count across shards.
func (c *Cluster) FactCount(fact string) int {
	total := 0
	for i := 0; i < c.n; i++ {
		total += c.Node(i).WH.FactCount(fact)
	}
	return total
}

// Counts returns (dimension members, total fact rows) for serving
// stats: members from shard 0 (replicated), rows summed.
func (c *Cluster) Counts() (members, factRows int) {
	members, factRows = c.Node(0).WH.Counts()
	for i := 1; i < c.n; i++ {
		_, rows := c.Node(i).WH.Counts()
		factRows += rows
	}
	return members, factRows
}

// HasSources is the loader's dedup probe over the cluster: each row is
// asked of the shard its routing key places it on, exactly as AddBatch
// routes it, and the answers come back in row order. A row that cannot
// route names a member no shard holds, so it is absent.
func (c *Cluster) HasSources(fact string, rows []dw.FactRow) ([]bool, error) {
	if c.n == 1 {
		return c.Node(0).WH.HasSources(fact, rows)
	}
	groups := make([][]dw.FactRow, c.n)
	at := make([][]int, c.n)
	for r, row := range rows {
		key, err := c.RouteKey(fact, row.Coords, nil)
		if err != nil {
			continue
		}
		s := c.hashShard(key)
		groups[s] = append(groups[s], row)
		at[s] = append(at[s], r)
	}
	out := make([]bool, len(rows))
	for i, group := range groups {
		if len(group) == 0 {
			continue
		}
		held, err := c.Node(i).WH.HasSources(fact, group)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		for j, r := range at[i] {
			out[r] = held[j]
		}
	}
	return out, nil
}
