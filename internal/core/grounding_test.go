package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"dwqa/internal/engine"
	"dwqa/internal/nl2olap"
	"dwqa/internal/webcorpus"
)

// The analytic translator grounds member mentions through a resolver it
// rebuilds when the warehouse's member names or the ontology's instances
// change. These tests feed cities no dimension holds yet and require
// every serving path to ground them without a restart: the leader that
// fed them, a follower that tails or reloads them, and a recovery that
// replays them.

// freshCities are covered by the freshness corpus but held by no
// dimension until a feed adds them.
var freshCities = []string{"Lausanne", "Paris", "Rome"}

// freshnessConfig is the recovery configuration over a corpus that also
// covers freshCities.
func freshnessConfig() Config {
	cfg := recoveryConfig()
	wc := webcorpus.DefaultConfig()
	wc.Months = cfg.Months
	wc.Cities = append(wc.Cities, freshCities...)
	cfg.Corpus = &wc
	return cfg
}

func feedQuestion(city string) string {
	return fmt.Sprintf("What is the weather like in January of 2004 in %s?", city)
}

func cityQuestion(city string) string {
	return fmt.Sprintf("Average temperature in %s in January of 2004", city)
}

// feedCity runs Step 5 for one fresh city and requires it to load rows.
func feedCity(t *testing.T, p *Pipeline, city string) {
	t.Helper()
	if _, err := p.Step5FeedWarehouse([]string{feedQuestion(city)}); err != nil {
		t.Fatal(err)
	}
	if p.LoadReport.Loaded == 0 {
		t.Fatalf("the feed for %s loaded nothing", city)
	}
}

// grounds reports whether p's engine answers the city question with the
// city's own Weather rows.
func grounds(t *testing.T, p *Pipeline, city string) bool {
	t.Helper()
	ans, err := p.AskOLAP(cityQuestion(city))
	if err != nil {
		if errors.Is(err, nl2olap.ErrFactoid) || !strings.Contains(err.Error(), "cannot ground") {
			t.Fatalf("%s: unexpected error %v", city, err)
		}
		return false
	}
	want := "Weather avg(TempC) where City/City in {" + city + "} and Date/Month in {2004-01}"
	if got := ans.PlanString(); got != want {
		t.Fatalf("%s: plan %s, want %s", city, got, want)
	}
	if len(ans.Result.Rows) != 1 || ans.Result.Rows[0].Count == 0 {
		t.Fatalf("%s: no rows behind the grounded city: %+v", city, ans.Result.Rows)
	}
	return true
}

// TestGroundingFollowsFeeds feeds three fresh cities through a durable
// leader with a follower attached, on 1 and 2 shards. Each city must
// ground, without a restart, on the leader right after its feed; on the
// follower after a WAL tail (Lausanne) and after a snapshot reload that
// swaps its warehouses (Paris); and on a leader recovered from WAL
// replay alone (Rome).
func TestGroundingFollowsFeeds(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { testGroundingFollowsFeeds(t, shards) })
	}
}

func testGroundingFollowsFeeds(t *testing.T, shards int) {
	cfg := freshnessConfig()
	dir := t.TempDir()
	leader, _, err := OpenShardedPipeline(cfg, dir, shards)
	if err != nil {
		t.Fatal(err)
	}
	follower, err := OpenShardedFollower(cfg, dir, shards)
	if err != nil {
		t.Fatal(err)
	}
	for _, city := range freshCities {
		if grounds(t, leader, city) || grounds(t, follower, city) {
			t.Fatalf("%s grounds before any feed added it", city)
		}
	}

	feedCity(t, leader, "Lausanne")
	if !grounds(t, leader, "Lausanne") {
		t.Error("leader: the fed city does not ground")
	}
	if _, err := follower.Poll(); err != nil {
		t.Fatal(err)
	}
	if !grounds(t, follower, "Lausanne") {
		t.Error("follower: the tailed city does not ground")
	}

	feedCity(t, leader, "Paris")
	eng, err := leader.Engine()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.SnapshotTo(); err != nil {
		t.Fatal(err)
	}
	if _, err := follower.Poll(); err != nil {
		t.Fatal(err)
	}
	if !grounds(t, follower, "Paris") {
		t.Error("follower: the city of a reloaded snapshot does not ground")
	}

	feedCity(t, leader, "Rome")
	if err := leader.Durable().Close(); err != nil { // a kill: Rome lives in the WAL alone
		t.Fatal(err)
	}
	recovered, info, err := OpenShardedPipeline(cfg, dir, shards)
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Durable().Close()
	if info.WALReplayed == 0 {
		t.Fatal("the reboot replayed no WAL record")
	}
	for _, city := range freshCities {
		if !grounds(t, recovered, city) {
			t.Errorf("recovered leader: %s does not ground", city)
		}
	}
}

// TestTranslatorBuiltBeforeStep2 builds a translator between Steps 1
// and 2, when the ontology holds no instances: El Prat is an airport, so
// it reaches the Weather fact only through its ontology instance, and
// must start grounding as soon as Step 2 adds that instance.
func TestTranslatorBuiltBeforeStep2(t *testing.T) {
	p := newPipeline(t)
	if err := p.Step1DeriveOntology(); err != nil {
		t.Fatal(err)
	}
	tr, err := NewScenarioTranslator(p.Cluster, p.Ontology)
	if err != nil {
		t.Fatal(err)
	}
	const q = "maximum temperature in El Prat in February of 2004"
	if _, err := tr.Translate(q); err == nil {
		t.Fatal("El Prat grounds on Weather before Step 2")
	}
	if err := p.Step2FeedOntology(); err != nil {
		t.Fatal(err)
	}
	got, err := tr.Translate(q)
	if err != nil {
		t.Fatalf("El Prat does not ground after Step 2: %v", err)
	}
	const want = "Weather max(TempC) where City/City in {Barcelona} and Date/Month in {2004-02}"
	if got.PlanString() != want {
		t.Errorf("plan %s, want %s", got.PlanString(), want)
	}
}

// TestTranslateDuringFeeds runs translations concurrently with feeds
// (under -race in CI): the scenario's analytic questions compile to
// their sequential plans throughout, a fresh city either fails to
// ground or compiles to its plan, and once its feed is acknowledged it
// grounds.
func TestTranslateDuringFeeds(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { testTranslateDuringFeeds(t, shards) })
	}
}

func testTranslateDuringFeeds(t *testing.T, shards int) {
	p, err := NewShardedPipeline(freshnessConfig(), shards)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Integrate(); err != nil {
		t.Fatal(err)
	}
	tr, err := p.Translator()
	if err != nil {
		t.Fatal(err)
	}
	questions := AnalyticQuestions()
	want := make([]string, len(questions))
	for i, q := range questions {
		res, err := tr.Translate(q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.PlanString()
	}

	var wg sync.WaitGroup
	done := make(chan struct{})
	errs := make(chan error, 2)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				q := questions[i%len(questions)]
				res, err := tr.Translate(q)
				if err != nil || res.PlanString() != want[i%len(questions)] {
					errs <- fmt.Errorf("%q mid-feed: %v %v", q, res, err)
					return
				}
				city := freshCities[i%len(freshCities)]
				if res, err := tr.Translate(cityQuestion(city)); err == nil && !strings.Contains(res.PlanString(), "{"+city+"}") {
					errs <- fmt.Errorf("%s mid-feed: plan %s", city, res.PlanString())
					return
				}
			}
		}()
	}
	feeds := append(p.WeatherQuestions(), feedQuestion("Lausanne"), feedQuestion("Paris"))
	for _, q := range feeds {
		if _, err := p.Step5FeedWarehouse([]string{q}); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for _, city := range []string{"Lausanne", "Paris"} {
		if _, err := tr.Translate(cityQuestion(city)); err != nil {
			t.Errorf("%s after its feed: %v", city, err)
		}
	}
}

// memberProbes reads the translator's probe counter off an engine.
func memberProbes(eng *engine.Engine) uint64 {
	return eng.Metrics().Counter("dwqa_nl2olap_member_probes_total", "").Value()
}

// TestMemberProbeCounterDeterministic asks the scenario's analytic
// questions on two fresh engines: the probe counter's deltas must be
// byte-equal, and they are pinned so a change in how many lookups
// grounding makes shows.
func TestMemberProbeCounterDeterministic(t *testing.T) {
	deltas := func() string {
		p := runAll(t)
		eng, err := p.Engine()
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, q := range AnalyticQuestions() {
			before := memberProbes(eng)
			if r := eng.Ask(context.Background(), q); r.Err != nil || r.OLAP == nil {
				t.Fatalf("ask %q: %+v", q, r)
			}
			fmt.Fprintf(&b, "%d ", memberProbes(eng)-before)
		}
		return b.String()
	}
	first, second := deltas(), deltas()
	if first != second {
		t.Fatalf("probe deltas differ between fresh engines:\n%s\n%s", first, second)
	}
	const want = "2 1 3 0 0 1 "
	if first != want {
		t.Errorf("probe deltas per question = %q, want %q", first, want)
	}
}
