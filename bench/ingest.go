package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// ingestBatchLimit is the latency limit of one seeder commit batch for
// slo_ok_share; a batch that also publishes a snapshot misses it.
const ingestBatchLimit = 200 * time.Millisecond

// ingestProbes is how many day-level questions the freshly ingested
// directory must answer with the gold value.
const ingestProbes = 40

// runIngest runs the `ingest` workload: the seeding run itself. One
// operation is one commit batch (64 pages: document analysis and
// indexing, one index WAL record, one warehouse WAL record, a
// checkpoint, and every 50 batches a snapshot), timed from outside by
// the progress line the seeder prints after each.
//
// A bulk load has no natural place to stop, so the work is fixed — the
// whole corpus — and the seeding is repeated for as long as another one
// fits into the seconds asked for (about 8 s each at 100 000 passages).
// The batches of all seedings are pooled.
func (h *harness) runIngest(seed int64, seconds int, traced bool) (*result, error) {
	dir := filepath.Join(h.tmpDir, "ingest-data")
	begin := time.Now()
	var runs []*seedRun
	longest := 0.0
	for len(runs) == 0 || (!traced && time.Since(begin).Seconds()+longest <= float64(seconds)) {
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		run, err := h.runSeeder(dir, h.passages)
		if err != nil {
			return nil, err
		}
		if len(runs) > 0 && (len(run.BatchAt) != len(runs[0].BatchAt) || run.Summary.Passages != runs[0].Summary.Passages) {
			return nil, fmt.Errorf("two seedings of one corpus differ: %d batches and %d passages, then %d and %d",
				len(runs[0].BatchAt), runs[0].Summary.Passages, len(run.BatchAt), run.Summary.Passages)
		}
		runs = append(runs, run)
		longest = max(longest, run.WallS)
	}
	sum := runs[0].Summary
	batches := len(runs[0].BatchAt)
	if batches < 2 {
		return nil, fmt.Errorf("seeder committed %d batches; log tail:\n%s", batches, tail(runs[0].LogPath, 20))
	}
	res := &result{Workload: "ingest", Seed: seed, Traced: traced, Attempted: batches * len(runs), Metrics: metrics{}}
	invalid := func(format string, args ...any) { res.Invalid = append(res.Invalid, fmt.Sprintf(format, args...)) }

	// What the seeder acknowledged must be what the page grid holds.
	model := newCorpusModel(sum.PagesSeen)
	rows := 0
	for _, cm := range model.Months {
		rows += len(cm.Highs)
	}
	switch {
	case sum.Passages < h.passages:
		invalid("seeder stopped at %d passages, target %d", sum.Passages, h.passages)
	case sum.DocsAdded != sum.PagesSeen || sum.Loaded != rows || sum.Skipped != 0:
		invalid("seeder indexed %d of %d pages and loaded %d rows (%d deduplicated), want %d rows", sum.DocsAdded, sum.PagesSeen, sum.Loaded, sum.Skipped, rows)
	case batches != (sum.PagesSeen+63)/64:
		invalid("saw %d batch commits for %d pages", batches, sum.PagesSeen)
	}
	disk, err := dirBytes(dir)
	if err != nil {
		return nil, err
	}

	// The directory must boot and answer: the same boot the serving
	// workloads time, on the directory this run wrote. A server killed
	// without having been fed leaves the directory as it found it, so it
	// can be booted repeatedly.
	repeats := h.setUps
	if traced {
		repeats = 1
	}
	var srv *server
	var boots, rawBoots []float64
	for i := 0; i < repeats; i++ {
		if srv != nil {
			h.stop(srv.proc)
		}
		if srv, err = h.startServer(dir); err != nil {
			return nil, err
		}
		boots, rawBoots = append(boots, h.scaled(srv.execAt, srv.bootS)), append(rawBoots, srv.bootS)
	}
	defer func() { h.stop(srv.proc) }()
	hc, err := srv.health()
	if err != nil {
		return nil, err
	}
	if hc.Passages != sum.Passages || hc.FactRows < sum.Loaded {
		invalid("server on the ingested directory reports %d passages and %d fact rows; the seeder wrote %d and %d", hc.Passages, hc.FactRows, sum.Passages, sum.Loaded)
	}
	clients, _ := newLoadClients(1)
	defer clients[0].close()
	var probes []request
	for _, r := range model.factoidCold(hotSetSeed, 4*ingestProbes) { // the same probes every run
		if r.Kind == kindDay && len(probes) < ingestProbes {
			probes = append(probes, r)
		}
	}
	probe := &phase{base: srv.base, clients: clients, model: model, src: newSource(probes, nil), count: len(probes)}
	probeRec, _, _ := probe.run()
	res.Attempted += probeRec.attempted
	res.Failed += probeRec.failed()
	for _, why := range probeRec.firstWhy {
		if why != "" {
			invalid("probe of the ingested directory: %s", why)
		}
	}

	// Batch latency is the gap between consecutive commit lines. The
	// first batch has no line before it: the time to its commit is the
	// seeder's start-up (it builds the scenario pipeline on the empty
	// directory and publishes the initial snapshot), which with the boot
	// that proves the result serves is this workload's set-up. Every
	// step is taken twice: as measured, and on the reference clock
	// (probe.go), scaled by the pings that returned while it ran.
	var gaps, rawGaps []int64
	var startups, rawStartups, rawWall, user, sys, rss []float64
	var wall, cpu float64
	within := 0
	for _, run := range runs {
		end := time.Duration(run.WallS * float64(time.Second))
		for i := 0; i <= batches; i++ {
			from, to := time.Duration(0), end
			if i > 0 {
				from = run.BatchAt[i-1]
			}
			if i < batches {
				to = run.BatchAt[i]
			}
			d := h.scaled(run.Start.Add(from), (to - from).Seconds())
			wall += d
			switch {
			case i == 0:
				startups, rawStartups = append(startups, d), append(rawStartups, to.Seconds())
			case i < batches:
				gaps, rawGaps = append(gaps, int64(d*float64(time.Second))), append(rawGaps, int64(to-from))
				if d <= ingestBatchLimit.Seconds() {
					within++
				}
			}
		}
		cpu += h.scaled(run.Start, run.WallS) / run.WallS * (run.UserS + run.SysS)
		rawWall, user, sys, rss = append(rawWall, run.WallS), append(user, run.UserS), append(sys, run.SysS), append(rss, run.PeakMB)
	}
	gaps, rawGaps = sortedCopy(gaps), sortedCopy(rawGaps)
	ops := float64(batches * len(runs))
	probeRTT, pings := h.probe.median(runs[0].Start, time.Now())
	m := res.Metrics
	m.set("setup_s", median(startups)+median(boots), len(runs))
	m.set("boot_s", median(boots), len(boots))
	m.set("throughput_ops_s", ops/wall, int(ops))
	m.set("latency_p50_ms", ms(percentile(gaps, 50)), len(gaps))
	m.set("latency_p90_ms", ms(percentile(gaps, 90)), len(gaps))
	m.set("latency_tail_ms", ms(tailLatency(gaps)), len(gaps))
	m.set("slo_ok_share", ratio(float64(within), float64(len(gaps))), len(gaps))
	m.set("exact_answer_share", ratio(float64(probeRec.byVerdict[verdictOK]-probeRec.inexact), float64(probeRec.attempted)), probeRec.attempted)
	m.set("cpu_ms_per_op", 1000*cpu/ops, int(ops))
	m.set("peak_rss_mb", median(rss), len(runs))
	m.set("disk_bytes_per_passage", ratio(float64(disk), float64(sum.Passages)), 1)
	// The same timings as measured.
	m.set("raw.setup_s", median(rawStartups)+median(rawBoots), len(runs))
	m.set("raw.boot_s", median(rawBoots), len(rawBoots))
	m.set("raw.throughput_ops_s", ops/total(rawWall), int(ops))
	m.set("raw.latency_p50_ms", ms(percentile(rawGaps, 50)), len(rawGaps))
	m.set("raw.latency_p90_ms", ms(percentile(rawGaps, 90)), len(rawGaps))
	m.set("raw.latency_tail_ms", ms(tailLatency(rawGaps)), len(rawGaps))
	m.set("raw.latency_p99_ms", ms(percentile(rawGaps, 99)), len(rawGaps))
	m.set("raw.cpu_ms_per_op", 1000*(total(user)+total(sys))/ops, int(ops))
	m.set("harness.probe_us", float64(probeRTT)/1e3, pings)
	m.set("seed.wall_s", median(rawWall), len(runs))
	m.set("seed.pages_per_s", float64(sum.PagesSeen*len(runs))/total(rawWall), sum.PagesSeen*len(runs))
	m.set("seed.cpu_user_s", median(user), len(runs))
	m.set("seed.cpu_sys_s", median(sys), len(runs))
	m.set("seed.peak_rss_mb", median(rss), len(runs))
	m.set("harness.error_share", ratio(float64(probeRec.byVerdict[verdictError]), float64(res.Attempted)), res.Attempted)
	m.set("harness.wrong_answer_share", ratio(float64(probeRec.byVerdict[verdictWrong]), float64(res.Attempted)), res.Attempted)

	if traced {
		h.stop(srv.proc)
		if err := h.traceIngest(dir, m); err != nil {
			return nil, err
		}
	}
	res.Correct = res.Failed == 0 && len(res.Invalid) == 0
	return res, nil
}

func total(vals []float64) float64 {
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum
}
