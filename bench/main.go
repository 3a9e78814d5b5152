// Command bench is the repository's benchmark: it builds cmd/seeder and
// cmd/dwqa from the tree under test, seeds a 100 000-passage data
// directory, boots a real `dwqa serve` on a copy of it and drives it
// over loopback HTTP in a closed loop, checking every reply against the
// corpus gold truth. BENCHMARK.json names its workloads and metrics;
// README.md explains them.
//
// Run it from the root of a checkout, with `go run ./bench` or through
// run.sh, which pins the Go caches inside the checkout:
//
//	bash bench/run.sh                       # every workload, one run each
//	bash bench/run.sh -workload ingest -trace 1
//	bash bench/run.sh -compare A.json B.json
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

// buildDir holds everything a run leaves behind, inside the checkout:
// binaries, the seeded corpus, logs and temporary data. run.sh builds
// the harness into it and .gitignore names it.
const buildDir = ".bench_build"

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload to run: ingest, factoid_cold, analytic_cold, hot_mixed_feed or all")
	seed := fs.Int64("seed", 1, "workload seed: which questions are asked, in which order (the corpus is fixed)")
	seconds := fs.Int("seconds", 0, "length of the timed window (default: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "1: traced run, reporting the per-layer metrics and writing trace.json")
	runs := fs.Int("runs", 1, "runs per workload, with seeds seed, seed+1, …")
	out := fs.String("out", "", "directory for logs, trace.json and results.json (default: "+buildDir+"/out)")
	compare := fs.Bool("compare", false, "compare two results.json files (given as arguments) against the bounds of BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return runCompare(fs.Args())
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	}

	h, err := newHarness(".", buildDir, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	// Children die and temporary directories go on every way out,
	// SIGINT and SIGTERM included.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		h.cleanup()
		os.Exit(130)
	}()
	defer h.cleanup()

	if *seconds == 0 {
		*seconds = h.spec.RunSeconds
	}
	var names []string
	for _, w := range h.spec.Workloads {
		if *workload == "all" || *workload == w.Name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		fmt.Fprintf(os.Stderr, "bench: BENCHMARK.json has no workload %q\n", *workload)
		return 2
	}
	if err := h.buildBinaries(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}

	results := newResultSet()
	ok := true
	for _, name := range names {
		for i := 0; i < *runs; i++ {
			res, err := h.runWorkload(name, *seed+int64(i), *seconds, *trace == 1)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
				return 1
			}
			line, err := h.spec.contractLine(res)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			results.add(res)
			ok = ok && res.Correct
			if err := results.write(filepath.Join(h.outDir, "results.json")); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			// Each run ends with its result as one line, so the last line
			// of standard output is the result the pipeline reads.
			h.spec.printTable(os.Stdout, res)
			fmt.Printf("%s\n", line)
		}
	}
	if !ok {
		return 1
	}
	return 0
}

func (h *harness) runWorkload(name string, seed int64, seconds int, traced bool) (*result, error) {
	if name == "ingest" {
		return h.runIngest(seed, seconds, traced)
	}
	for _, wl := range servingWorkloads {
		if wl.name == name {
			return h.runServing(wl, seed, seconds, traced)
		}
	}
	return nil, fmt.Errorf("BENCHMARK.json names a workload the harness does not implement")
}

func runCompare(files []string) int {
	if len(files) != 2 {
		fmt.Fprintln(os.Stderr, "bench: -compare takes two results.json files")
		return 2
	}
	s, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	a, err := readResultSet(files[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	b, err := readResultSet(files[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if n := s.compare(os.Stdout, a, b); n > 0 {
		fmt.Printf("%d breaches\n", n)
		return 1
	}
	fmt.Println("no breach")
	return 0
}
