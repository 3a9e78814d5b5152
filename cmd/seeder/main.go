// Command seeder streams large corpora into a durable dwqa data
// directory: generated scaled-corpus pages (the benchmark grid) or a
// JSONL corpus file, committed in bounded batches through the same WAL
// paths the serving engine feeds use, with checkpoint/resume — a killed
// run restarted with the same flags picks up where it left off and
// converges to the state an uninterrupted run would have produced.
//
// Examples:
//
//	seeder -data ./data -passages 1000000            # ingest ≥1M passages
//	seeder -data ./data -jsonl corpus.jsonl          # ingest a JSONL corpus
//	seeder -data ./data -passages 1000000 -batch 128 # bigger commit batches
//
// The per-batch progress line reports live heap and RSS; the runtime's
// GOGC environment variable sets the GC target if RSS headroom is to be
// traded for fewer collections.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"dwqa/internal/seed"
)

func main() {
	log.SetFlags(0)
	var (
		dataDir  = flag.String("data", "", "durable data directory (required)")
		passages = flag.Int("passages", 0, "target passage count (generated mode)")
		maxPages = flag.Int("pages", 0, "cap on pages ingested this run (0 = no cap)")
		batch    = flag.Int("batch", seed.DefaultBatchPages, "pages per commit batch")
		snapshot = flag.Int("snapshot-every", seed.DefaultSnapshotEvery, "batches between snapshots (<0 = final only)")
		seedVal  = flag.Int64("seed", 42, "generated-corpus seed")
		jsonl    = flag.String("jsonl", "", "ingest this JSONL corpus instead of the generated grid")
		progress = flag.Int("progress-every", 16, "batches between progress lines")
		quiet    = flag.Bool("quiet", false, "suppress progress output")
	)
	flag.Parse()
	if *dataDir == "" {
		fmt.Fprintln(os.Stderr, "seeder: -data is required")
		flag.Usage()
		os.Exit(2)
	}

	cfg := seed.Config{
		DataDir:       *dataDir,
		Passages:      *passages,
		MaxPages:      *maxPages,
		BatchPages:    *batch,
		SnapshotEvery: *snapshot,
		Seed:          *seedVal,
		JSONL:         *jsonl,
		ProgressEvery: *progress,
	}
	if !*quiet {
		cfg.Logf = log.Printf
	}
	sum, err := seed.Run(cfg)
	if err != nil {
		log.Fatalf("seeder: %v", err)
	}
	resumed := "fresh"
	if sum.Resumed {
		resumed = fmt.Sprintf("resumed at page %d", sum.StartPages)
	}
	fmt.Printf("seeder: %s; %d pages ingested (%d docs, %d rows, %d deduped); index %d docs / %d passages; wal seq %d; %v\n",
		resumed, sum.PagesSeen, sum.DocsAdded, sum.Loaded, sum.Skipped,
		sum.Documents, sum.Passages, sum.WALSeq, sum.Elapsed.Round(1e6))
	// Machine-readable trailer for scripts driving ingestion runs.
	if buf, err := json.Marshal(sum); err == nil {
		fmt.Printf("seeder-summary %s\n", buf)
	}
}
