package core

import (
	"os"
	"reflect"
	"runtime"
	"testing"

	"dwqa/internal/obs"
	"dwqa/internal/store"
	"dwqa/internal/uml2onto"
)

// Micro-benchmark of what the serving benchmark in bench/ cannot
// isolate: index residency at a corpus size bench/ does not seed. The
// compiled-vs-reference OLAP and sparse-vs-dense retrieval benchmarks
// live with their oracles in internal/dw and internal/ir (scaled_test.go).
//
//	DWQA_BENCH_1M=1 go test -run '^$' -bench Footprint1M -benchtime 1x ./internal/core

// BenchmarkFootprint1M is the gated large-corpus tier: snapshot restore
// of a 1M-passage index, then resident memory with one restored state
// live. Building the corpus takes minutes, so it runs only with
// DWQA_BENCH_1M=1. RSS is read from /proc/self/status; 0 means procfs is
// unavailable.
func BenchmarkFootprint1M(b *testing.B) {
	if os.Getenv("DWQA_BENCH_1M") != "1" {
		b.Skip("set DWQA_BENCH_1M=1 to run the 1M-passage footprint tier")
	}
	sc, err := BuildScaledCorpus(1_000_000, 42)
	if err != nil {
		b.Fatal(err)
	}
	wh, err := BuildScaledWarehouse(1_000, 42)
	if err != nil {
		b.Fatal(err)
	}
	onto, err := uml2onto.Transform(Figure1Schema())
	if err != nil {
		b.Fatal(err)
	}
	state := &store.State{DW: wh.Export(), IR: sc.Index.Export(), Onto: onto.Export()}
	snap := store.EncodeState(state)
	postingBytes, postings := sc.Index.PostingsBytes()

	rwh, rix, ronto, err := RestoreState(snap)
	if err != nil {
		b.Fatal(err)
	}
	if !reflect.DeepEqual(rwh.Export(), state.DW) || !reflect.DeepEqual(rix.Export(), state.IR) ||
		!reflect.DeepEqual(ronto.Export(), state.Onto) {
		b.Fatal("restored state diverges from the snapshot")
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, _, _, err := RestoreState(snap); err != nil {
			b.Fatal(err)
		}
	}
	runtime.GC()
	const mb = 1 << 20
	b.ReportMetric(float64(obs.ProcessRSS())/mb, "rss_MB")
	b.ReportMetric(float64(obs.ProcessPeakRSS())/mb, "peak_rss_MB")
	b.ReportMetric(float64(len(snap))/mb, "snapshot_MB")
	b.ReportMetric(float64(postingBytes)/float64(postings), "B/posting")
	runtime.KeepAlive(rwh)
	runtime.KeepAlive(rix)
	runtime.KeepAlive(ronto)
}
