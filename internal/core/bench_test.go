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

// Micro-benchmarks of what the serving benchmark in bench/ cannot
// isolate: each fast engine against its retained reference, and index
// residency at a corpus size bench/ does not seed. Every arm is checked
// for equality with its reference before anything is timed.
//
//	go test -run '^$' -bench 'OLAPExecute|IRSearch' -benchmem ./internal/core
//	DWQA_BENCH_1M=1 go test -run '^$' -bench Footprint1M -benchtime 1x ./internal/core

// benchOLAPExecute times the compiled columnar engine against the
// row-at-a-time ExecuteReference over one generated warehouse.
func benchOLAPExecute(b *testing.B, targetRows int) {
	wh, err := BuildScaledWarehouse(targetRows, 42)
	if err != nil {
		b.Fatal(err)
	}
	q := ScaledOLAPQuery()
	got, err := wh.Execute(q)
	if err != nil {
		b.Fatal(err)
	}
	want, err := wh.ExecuteReference(q)
	if err != nil {
		b.Fatal(err)
	}
	if err := ResultsAlmostEqual(got, want); err != nil {
		b.Fatalf("engines diverge over %d rows: %v", wh.FactCount("LastMinuteSales"), err)
	}
	b.Logf("fact rows: %d", wh.FactCount("LastMinuteSales"))
	b.Run("compiled", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := wh.Execute(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := wh.ExecuteReference(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkOLAPExecute1k(b *testing.B)   { benchOLAPExecute(b, 1_000) }
func BenchmarkOLAPExecute10k(b *testing.B)  { benchOLAPExecute(b, 10_000) }
func BenchmarkOLAPExecute100k(b *testing.B) { benchOLAPExecute(b, 100_000) }

// benchIRSearch times the sparse passage scorer against the dense
// SearchReference over a generated corpus, cycling the per-city
// [city, month] queries question analysis sends to IR-n.
func benchIRSearch(b *testing.B, targetPassages int) {
	sc, err := BuildScaledCorpus(targetPassages, 42)
	if err != nil {
		b.Fatal(err)
	}
	if err := VerifyScaledIR(sc, 10); err != nil {
		b.Fatal(err)
	}
	queries := sc.Queries()
	b.Logf("passages: %d, cities: %d, terms: %d", sc.Index.PassageCount(), len(sc.Cities), sc.Index.TermCount())
	b.Run("sparse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; b.Loop(); i++ {
			sc.Index.Search(queries[i%len(queries)], 10)
		}
	})
	b.Run("dense", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; b.Loop(); i++ {
			sc.Index.SearchReference(queries[i%len(queries)], 10)
		}
	})
}

func BenchmarkIRSearch1k(b *testing.B)   { benchIRSearch(b, 1_000) }
func BenchmarkIRSearch10k(b *testing.B)  { benchIRSearch(b, 10_000) }
func BenchmarkIRSearch100k(b *testing.B) { benchIRSearch(b, 100_000) }

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
