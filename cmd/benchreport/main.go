// Command benchreport regenerates every experiment table of the
// reproduction. Each experiment maps to a table or figure of the paper,
// or to one of its quantified qualitative claims — DESIGN.md §5
// ("Experiment index") lists them.
//
// Usage:
//
//	benchreport              # run everything, plain text
//	benchreport -exp F5      # one experiment
//	benchreport -markdown    # markdown tables
//	benchreport -json        # machine-readable JSON tables
//
// Serving performance is measured by bench/ (bash bench/run.sh), not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"dwqa/internal/eval"
)

func main() {
	exp := flag.String("exp", "", "run a single experiment: F1 F2 F3 T1 F4 F5 QAIR ONTO IRFILTER PSIZE FEED")
	markdown := flag.Bool("markdown", false, "emit markdown tables")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON tables")
	seed := flag.Int64("seed", 42, "deterministic seed")
	flag.Parse()

	s := &eval.Suite{Seed: *seed}
	runs := map[string]func() (*eval.Table, error){
		"F1": s.Figure1, "F2": s.Figure2, "F3": s.Figure3, "T1": s.Table1,
		"F4": s.Figure4, "F5": s.Figure5, "QAIR": s.QAvsIR,
		"ONTO": s.OntologyAblation, "IRFILTER": s.IRFilter, "PSIZE": s.PassageSize, "FEED": s.Feed,
	}

	var tables []*eval.Table
	if *exp != "" {
		run, ok := runs[strings.ToUpper(*exp)]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchreport: unknown experiment %q\n", *exp)
			os.Exit(2)
		}
		tbl, err := run()
		if err != nil {
			fatal(err)
		}
		tables = append(tables, tbl)
	} else {
		all, err := s.RunAll()
		if err != nil {
			fatal(err)
		}
		tables = all
	}
	if *jsonOut {
		s, err := eval.TablesJSON(tables)
		if err != nil {
			fatal(err)
		}
		fmt.Println(s)
		return
	}
	for _, t := range tables {
		if *markdown {
			fmt.Println(t.Markdown())
		} else {
			fmt.Println(t.Format())
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchreport:", err)
	os.Exit(1)
}
