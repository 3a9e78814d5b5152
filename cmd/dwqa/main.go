// Command dwqa runs the full five-step DW↔QA integration on the Last
// Minute Sales scenario. Without a subcommand it prints the paper's
// Table 1 trace, the mixed factoid+analytic workload (natural-language
// questions compiled to OLAP plans) and the BI analysis the scenario
// motivates; the serve subcommand keeps the integrated system running
// behind an HTTP JSON API.
//
// Usage:
//
//	dwqa [-seed N] [-q QUESTION]
//	dwqa serve [-seed N] [-addr :8080] [-cache 1024] [-no-feed]
//	           [-data-dir DIR] [-snapshot-every DUR] [-shards N]
//	           [-follow] [-poll DUR] [-quiet] [-slow-query DUR]
//	           [-pprof ADDR]
//
// The serving limits are fixed, not flags: at most dwqa.DefaultMaxInflight
// (64) admitted requests with dwqa.DefaultMaxQueue (128) more queued
// before a 429, a dwqa.DefaultAskTimeout (2s) deadline on /ask paths and
// dwqa.DefaultHarvestTimeout (30s) on /harvest, the http.Server timeouts
// below, and a 10s drain of in-flight requests at shutdown.
//
// With -data-dir the server is durable: on boot it recovers the
// warehouse, passage index and ontology from the newest snapshot plus the
// write-ahead log (restart-in-seconds instead of a cold re-feed), every
// feed is journaled, and on SIGTERM/SIGINT it drains in-flight requests
// and publishes a final snapshot before exiting. -snapshot-every adds
// periodic background snapshots that never block /ask.
//
// With -shards N the warehouse fact columns and the passage index
// partition across N shards by city hash (answers stay byte-identical
// to single-node serving, which is the 1-shard case); with -data-dir
// each of N > 1 shards persists its own snapshot/WAL store under the
// directory, and one shard keeps its store in the directory itself.
// -follow opens the same directory as a read replica instead: it serves
// from the leader's shipped snapshots, tails each shard's WAL every
// -poll, and refuses feeds; /healthz reports per-shard sequence and lag
// on both sides.
//
// The serve API:
//
//	POST /ask        {"question": "..."}      one answer (factoid, or OLAP plan + rows)
//	POST /ask/batch  {"questions": [...]}     batched answers, input order
//	POST /ask/olap   {"question": "..."}      the analytic path: plan + rows + table
//	POST /harvest    {"questions": [...]}     Step 5 feed (empty = default workload)
//	GET  /trace?q=…                           the paper's Table 1 trace
//	GET  /healthz                             serving statistics
//	GET  /metrics                             Prometheus text exposition
//
// JSON replies are compact, one line each; only /ask/olap draws the
// result as a text "table" (the CLI output above stays human-formatted).
//
// Observability: every request is access-logged (method, path, status,
// outcome class, latency) unless -quiet; -slow-query DUR logs a
// per-stage latency breakdown (NLP analyse, IR search, OLAP
// compile/execute, QA extract, cache lookup, …) for requests over the
// threshold, sampled to at most one line per second; -pprof ADDR serves
// net/http/pprof on a separate listener, never the serving address.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dwqa"
)

// Transport limits of the serving listener and the shutdown drain
// budget. Without the timeouts a slow or stalled client holds a
// connection (and its kernel buffers) forever; the engine's own
// deadlines only start once a request is fully read.
const (
	readHeaderTimeout = 5 * time.Second // slowloris guard
	readTimeout       = 30 * time.Second
	writeTimeout      = 60 * time.Second
	idleTimeout       = 120 * time.Second // keep-alive connections
	drainTimeout      = 10 * time.Second
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		runServe(os.Args[2:])
		return
	}
	runTrace(os.Args[1:])
}

// traceSetup is what the trace-mode flags decide.
type traceSetup struct {
	cfg      dwqa.Config
	question string
}

// traceFlags registers the trace-mode flags, bound to ts.
func traceFlags(ts *traceSetup) *flag.FlagSet {
	fs := flag.NewFlagSet("dwqa", flag.ContinueOnError)
	fs.Int64Var(&ts.cfg.Seed, "seed", 42, "deterministic seed for scenario, corpus and workload")
	fs.StringVar(&ts.question, "q", "What is the weather like in January of 2004 in El Prat?", "question to trace")
	return fs
}

// runTrace is the classic one-shot mode: integrate, trace, analyse.
func runTrace(args []string) {
	ts := traceSetup{cfg: dwqa.DefaultConfig()}
	exitOnParseError(traceFlags(&ts).Parse(args))

	p, err := dwqa.New(ts.cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Println("Running the five-step integration (paper §3)...")
	if err := p.RunAll(); err != nil {
		fatal(err)
	}
	fmt.Println(p.Summary())

	tr, err := p.Table1(ts.question)
	if err != nil {
		fatal(err)
	}
	fmt.Println("--- Table 1 trace ---")
	fmt.Println(tr.Format())

	// The mixed workload the integration enables: the same Ask surface
	// answers factoid questions from the web and analytic questions from
	// the warehouse (compiled OLAP plans).
	fmt.Println("--- Analytic questions (NL → compiled OLAP plans) ---")
	for _, q := range []string{
		"What is the average temperature in Barcelona by month?",
		"Total last-minute revenue per destination city in January",
		"How many tickets were sold to Barcelona in January of 2004?",
	} {
		ans, err := p.AskOLAP(q)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("Q: %s\nplan: %s\n%s\n", q, ans.PlanString(), ans.Result.Format())
	}

	rep, err := dwqa.AnalyzeSalesWeather(p)
	if err != nil {
		fatal(err)
	}
	fmt.Println("--- BI analysis (the scenario's goal) ---")
	fmt.Println(rep.Format())
}

// serveSetup is what the serve flags decide: the pipeline and engine
// configuration, the topology and the transport options.
type serveSetup struct {
	cfg       dwqa.Config
	noFeed    bool
	dataDir   string
	snapEvery time.Duration
	shards    int
	follow    bool
	poll      time.Duration
	opts      serveOptions
}

// serveFlags registers the serve flags, bound to ss.
func serveFlags(ss *serveSetup) *flag.FlagSet {
	fs := flag.NewFlagSet("dwqa serve", flag.ContinueOnError)
	fs.Int64Var(&ss.cfg.Seed, "seed", 42, "deterministic seed for scenario, corpus and workload")
	fs.StringVar(&ss.opts.addr, "addr", ":8080", "listen address")
	fs.IntVar(&ss.cfg.Engine.CacheSize, "cache", 0, "answer-cache entries (0 = engine default, negative disables)")
	fs.BoolVar(&ss.noFeed, "no-feed", false, "skip the initial Step 5 feed (serve over the unfed warehouse)")
	fs.StringVar(&ss.dataDir, "data-dir", "", "durable data directory (snapshots + write-ahead log); empty serves in-memory")
	fs.DurationVar(&ss.snapEvery, "snapshot-every", 0, "background snapshot interval with -data-dir (0 disables)")
	fs.IntVar(&ss.shards, "shards", 1, "partition the warehouse and index across N shards (scatter/gather serving)")
	fs.BoolVar(&ss.follow, "follow", false, "serve as a read replica over -data-dir: ship the leader's snapshots, tail its WAL, refuse feeds")
	fs.DurationVar(&ss.poll, "poll", 2*time.Second, "replica WAL poll interval with -follow")
	fs.BoolVar(&ss.opts.quiet, "quiet", false, "suppress the per-request access log (recovered panics are still logged)")
	fs.DurationVar(&ss.opts.slowQuery, "slow-query", 0, "log a per-stage breakdown for requests slower than this (0 disables; sampled to one line per second)")
	fs.StringVar(&ss.opts.pprofAddr, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty disables)")
	return fs
}

// parseServe parses and validates the serve flags and makes the serving
// decision: the engine limits are the dwqa.Default* values.
func parseServe(args []string) (*serveSetup, error) {
	ss := &serveSetup{cfg: dwqa.DefaultConfig()}
	fs := serveFlags(ss)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	ss.cfg.Engine.MaxInflight = dwqa.DefaultMaxInflight
	ss.cfg.Engine.MaxQueue = dwqa.DefaultMaxQueue
	ss.cfg.Engine.AskTimeout = dwqa.DefaultAskTimeout
	ss.cfg.Engine.HarvestTimeout = dwqa.DefaultHarvestTimeout

	// A cluster directory already knows its shard count — detect it so
	// reopening or following never requires restating -shards, and an
	// explicit -shards that disagrees fails here with a clear message
	// instead of a fingerprint mismatch deep in bootstrap.
	shardsSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "shards" {
			shardsSet = true
		}
	})
	if ss.dataDir != "" {
		detected, err := dwqa.DetectShards(ss.dataDir)
		if err != nil {
			return nil, err
		}
		if detected > 0 {
			if shardsSet && ss.shards != detected {
				return nil, fmt.Errorf("-shards %d disagrees with %s, which was created with %d shards", ss.shards, ss.dataDir, detected)
			}
			if !shardsSet {
				ss.shards = detected
				fmt.Printf("dwqa serve: detected %d-shard cluster in %s\n", detected, ss.dataDir)
			}
		}
	}
	if ss.shards < 1 {
		return nil, fmt.Errorf("-shards must be at least 1, got %d", ss.shards)
	}
	if ss.poll <= 0 {
		return nil, fmt.Errorf("-poll must be positive, got %s", ss.poll)
	}
	if ss.follow && ss.dataDir == "" {
		return nil, fmt.Errorf("-follow requires -data-dir (the leader's data directory)")
	}
	return ss, nil
}

// runServe integrates (or recovers) once — a writer over one or more
// shards, or a read replica — then serves the QA side over HTTP until
// SIGINT/SIGTERM, draining in-flight requests on the way out.
func runServe(args []string) {
	ss, err := parseServe(args)
	exitOnParseError(err)

	// Open (or recover) the pipeline; everything after — the feed, the
	// engine, background and final snapshots, closing the stores — is
	// one tail for both roles.
	var (
		p        *dwqa.Pipeline
		stopTail = func() {} // a replica's WAL tail
		durable  = !ss.follow && ss.dataDir != ""
	)
	switch {
	case ss.follow:
		if p, err = dwqa.OpenFollower(ss.cfg, ss.dataDir, ss.shards); err != nil {
			fatal(err)
		}
		stopTail = p.StartTailing(ss.poll, func(err error) {
			fmt.Fprintln(os.Stderr, "dwqa serve: replica tail:", err)
		})
		fmt.Printf("dwqa serve: following %s (%d shards, polling every %s, read-only)\n", ss.dataDir, ss.shards, ss.poll)
	case durable: // the leader, recovered from or published to -data-dir
		var info *dwqa.RecoveryInfo
		if p, info, err = dwqa.OpenSharded(ss.cfg, ss.dataDir, ss.shards); err != nil {
			fatal(err)
		}
		if info.Recovered {
			members, rows := p.Durable().StateCounts()
			fmt.Printf("dwqa serve: recovered %s (%d shards, %d members, %d fact rows, %d WAL records replayed)\n",
				ss.dataDir, ss.shards, members, rows, info.WALReplayed)
		} else {
			fmt.Println("dwqa serve: fresh data dir, integrated and published the initial snapshot")
		}
	default: // the leader in memory
		if p, err = dwqa.NewSharded(ss.cfg, ss.shards); err != nil {
			fatal(err)
		}
		fmt.Printf("dwqa serve: running the five-step integration (paper §3) over %d shards...\n", ss.shards)
		if err := p.Integrate(); err != nil {
			fatal(err)
		}
	}

	// The feed runs on recovered boots too: a crash mid-harvest leaves a
	// partial warehouse, and re-feeding converges on the complete one —
	// the restored dedup state skips every record that survived, so a
	// fully-fed recovery costs one no-op pass.
	if !ss.follow && !ss.noFeed {
		if durable {
			fmt.Println("dwqa serve: running the Step 5 feed (journaled; recovered records are skipped)...")
		}
		if _, err := p.Step5FeedWarehouse(p.WeatherQuestions()); err != nil {
			fatal(err)
		}
	}
	fmt.Print(p.Summary())

	eng, err := p.Engine()
	if err != nil {
		fatal(err)
	}
	stopSnapshots := func() {}
	if durable && ss.snapEvery > 0 {
		stopSnapshots = eng.SnapshotEvery(ss.snapEvery, func(err error) {
			fmt.Fprintln(os.Stderr, "dwqa serve: background snapshot:", err)
		})
		defer stopSnapshots() // idempotent; safety net for the error path
	}

	ss.opts.serve(eng, func() {
		stopTail() // a replica's tail loop must stop before the cluster is abandoned
		if durable {
			// The background snapshotter must be fully stopped (waiting
			// out any in-flight tick) before the final snapshot and the
			// store close behind it.
			stopSnapshots()
			info, err := eng.SnapshotTo()
			if err != nil {
				fatal(fmt.Errorf("final snapshot: %w", err))
			}
			fmt.Printf("dwqa serve: final snapshot %s (%d bytes, WAL seq %d)\n",
				info.Path, info.Bytes, info.WALSeq)
			if err := p.Durable().Close(); err != nil {
				fatal(err)
			}
		}
	})
}

// serveOptions carries the transport-level serving knobs.
type serveOptions struct {
	addr      string
	quiet     bool          // -quiet: no per-request access log
	slowQuery time.Duration // -slow-query: per-stage breakdown threshold
	pprofAddr string        // -pprof: net/http/pprof listener ("" = off)
}

// server builds the serving listener over h with the transport limits.
func (o serveOptions) server(h http.Handler) *http.Server {
	return &http.Server{
		Addr:              o.addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// serve listens until SIGINT/SIGTERM, drains in-flight requests, then
// runs shutdown (final snapshots, store closes, replica tail stops).
func (o serveOptions) serve(eng *dwqa.Engine, shutdown func()) {
	if o.slowQuery > 0 {
		eng.SetSlowQueryLog(o.slowQuery, log.Printf)
	}
	srv := o.server(dwqa.NewServerWith(eng, dwqa.ServerOptions{Quiet: o.quiet}))
	if o.pprofAddr != "" {
		// The profiler gets its own mux and listener so profiling is
		// never exposed on the serving address.
		go func() {
			pprofMux := http.NewServeMux()
			pprofMux.HandleFunc("/debug/pprof/", pprof.Index)
			pprofMux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			pprofMux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			pprofMux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			pprofMux.HandleFunc("/debug/pprof/trace", pprof.Trace)
			fmt.Printf("dwqa serve: pprof on %s\n", o.pprofAddr)
			if err := http.ListenAndServe(o.pprofAddr, pprofMux); err != nil {
				fmt.Fprintln(os.Stderr, "dwqa serve: pprof:", err)
			}
		}()
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	st := eng.Stats()
	fmt.Printf("dwqa serve: listening on %s (%d workers, %d passages indexed)\n",
		o.addr, eng.Workers(), st.Passages)

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
		stop() // restore default signal handling: a second signal kills hard
		fmt.Println("dwqa serve: shutting down, draining in-flight requests...")
		drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		if err := srv.Shutdown(drainCtx); err != nil {
			fmt.Fprintln(os.Stderr, "dwqa serve: drain:", err)
		}
		if shutdown != nil {
			shutdown()
		}
		fmt.Println("dwqa serve: bye")
	}
}

// exitOnParseError exits 0 after -h and 1 on any other flag error.
func exitOnParseError(err error) {
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dwqa:", err)
	os.Exit(1)
}
