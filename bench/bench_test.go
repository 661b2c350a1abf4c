package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the tables in metrics.go")

// benchmarkJSON mirrors the harness's schema for BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []jsonWorkload `json:"workloads"`
	EndToEnd   []jsonEndToEnd `json:"end_to_end"`
	PerLayer   []jsonLayer    `json:"per_layer"`
}

type jsonWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type jsonEndToEnd struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type jsonLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// fromTables builds BENCHMARK.json's content from metrics.go.
func fromTables() benchmarkJSON {
	b := benchmarkJSON{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloads {
		b.Workloads = append(b.Workloads, jsonWorkload{w.Name, w.Why})
	}
	for _, s := range endToEnd {
		if s.Driver {
			b.EndToEnd = append(b.EndToEnd, jsonEndToEnd{s.Name, s.Unit, s.Better, s.Bound})
		}
	}
	for _, s := range perLayer {
		b.PerLayer = append(b.PerLayer, jsonLayer{s.Name, s.Unit, s.Better})
	}
	return b
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the code from
// drifting, and keeps both inside the harness's limits.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	const path = "../BENCHMARK.json"
	want, err := json.MarshalIndent(fromTables(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if *update {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from the tables in metrics.go; run `go test ./bench -run TestBenchmarkJSONMatchesTables -update`")
	}

	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(got))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if n := len(b.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(b.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(b.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", b.RunSeconds)
	}
	if len(got) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(got))
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range b.Workloads {
		name(w.Name)
		if len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	hasSetup := false
	for _, m := range b.EndToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == betterLower {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s (unit s, lower is better)")
	}
	for _, m := range b.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
	}
}

// TestSmokeEmitsEveryDeclaredMetric runs all four workloads in-process on
// the smoke profile and checks that every end-to-end and per-layer name is
// emitted with its declared unit, so the tables and the code cannot drift.
func TestSmokeEmitsEveryDeclaredMetric(t *testing.T) {
	start := time.Now()
	for _, w := range workloads {
		dir := t.TempDir()
		cfg := config{seed: 1, seconds: defaultSeconds, smoke: true, outDir: dir, walDir: dir, rec: NewRecorder(w.Name)}
		run, err := runWorkload(w.Name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !run.Correct() {
			t.Errorf("%s: checks failed: %+v", w.Name, run.Checks)
		}
		for _, s := range endToEnd {
			v, ok := run.Metrics[s.Name]
			switch {
			case !s.appliesTo(w.Name):
				if ok {
					t.Errorf("%s emits %s, which is not declared for it", w.Name, s.Name)
				}
			case !ok:
				t.Errorf("%s does not emit %s", w.Name, s.Name)
			case v.Unit != s.Unit:
				t.Errorf("%s: %s has unit %q, declared %q", w.Name, s.Name, v.Unit, s.Unit)
			case s.Driver && !(v.Value > 0):
				t.Errorf("%s: %s = %v, must be positive on every workload", w.Name, s.Name, v.Value)
			}
		}
		line := harnessLine(run)
		if len(line.Metrics) != len(perLayer) {
			t.Errorf("%s: traced harness line has %d metrics, want %d", w.Name, len(line.Metrics), len(perLayer))
		}
		for _, s := range perLayer {
			v, ok := run.Metrics[s.Name]
			if !ok || v.Unit != s.Unit {
				t.Errorf("%s: per-layer %s missing or unit %q != %q", w.Name, s.Name, v.Unit, s.Unit)
			}
		}
		if _, err := os.Stat(filepath.Join(dir, "trace-"+w.Name+".json")); err != nil {
			t.Errorf("%s: no trace file: %v", w.Name, err)
		}
		left, _ := filepath.Glob(filepath.Join(dir, "*.wal"))
		if len(left) > 0 {
			t.Errorf("%s left WAL files behind: %v", w.Name, left)
		}
	}
	t.Logf("smoke profile, four workloads traced: %v", time.Since(start))
}

// TestLayerIsolation checks on the smoke profile what the full run is
// accepted on: local training is absent from the fan-in workloads, and
// only the durable one appends to a WAL.
func TestLayerIsolation(t *testing.T) {
	metrics := make(map[string]Metrics)
	for _, name := range []string{wlFanin16TLS, wlFanin16Durabl} {
		dir := t.TempDir()
		run, err := runWorkload(name, config{seed: 2, seconds: defaultSeconds, smoke: true, outDir: dir, walDir: dir, rec: NewRecorder(name)})
		if err != nil {
			t.Fatal(err)
		}
		metrics[name] = run.Metrics
	}
	tls, dur := metrics[wlFanin16TLS], metrics[wlFanin16Durabl]
	if busy, round := tls["fl.executor.busy_s_per_round"].Value, tls["round_p50_s"].Value; busy > 0.05*round {
		t.Errorf("fanin16_tls: executors busy %.6fs of a %.6fs round, want <= 5%%", busy, round)
	}
	if v := tls["durable.appends_per_round"].Value; v != 0 {
		t.Errorf("fanin16_tls appends %v WAL records per round, want 0", v)
	}
	sites := float64(sizesFor(defaultSeconds, true).faninSites)
	if v := dur["durable.appends_per_round"].Value; v <= sites {
		t.Errorf("fanin16_durable appends %v WAL records per round, want > %v (one per site)", v, sites)
	}
}

// TestHarnessLine drives the single-workload mode the harness uses and
// checks the last stdout line: exactly four keys, and exactly the
// end-to-end metrics BENCHMARK.json declares.
func TestHarnessLine(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	code := realMain([]string{"--workload", wlTier30kSim, "--seed", "3", "--seconds", "20", "--trace", "0", "-smoke", "-out", dir}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := line[key]; !ok {
			t.Errorf("last line lacks %q", key)
		}
	}
	if len(line) != 4 {
		t.Errorf("last line has %d keys, want 4", len(line))
	}
	var got Metrics
	if err := json.Unmarshal(line["metrics"], &got); err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, s := range endToEnd {
		if !s.Driver {
			continue
		}
		want++
		if v, ok := got[s.Name]; !ok || v.Unit != s.Unit || !(v.Value > 0) {
			t.Errorf("%s = %+v, want a positive value in %s", s.Name, v, s.Unit)
		}
	}
	if len(got) != want {
		t.Errorf("untraced line carries %d metrics, want %d", len(got), want)
	}
	if code := realMain([]string{"-workload", "nope", "-out", dir}, &stdout, &stderr); code == 0 {
		t.Error("unknown workload exited 0")
	}
}

// TestSelfTimes checks the self-time computation on a hand-built tree
// with nested and overlapping children.
func TestSelfTimes(t *testing.T) {
	span := func(id, parent int, start, end int64) Span {
		return Span{ID: id, Parent: parent, StartNS: start, EndNS: end}
	}
	spans := []Span{
		span(1, 0, 0, 100),   // round
		span(2, 1, 10, 50),   // site A
		span(3, 1, 30, 70),   // site B overlaps A: union [10,70)
		span(4, 1, 80, 120),  // sticks out past the parent: clipped to [80,100)
		span(5, 2, 15, 25),   // nested in A
		span(6, 2, 20, 40),   // nested in A, overlaps 5: union [15,40)
		span(7, 0, 200, 230), // a root with no children
		span(8, 3, 30, 70),   // covers B entirely
	}
	want := map[int]time.Duration{
		1: 100 - 60 - 20, // 20
		2: 40 - 25,       // 15
		3: 0,
		4: 40,
		5: 10,
		6: 20,
		7: 30,
		8: 40,
	}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d: self time %d, want %d", id, got[id], w)
		}
	}
}

// TestRecorderRounds checks the round spans' parent links and the
// per-federation round offset.
func TestRecorderRounds(t *testing.T) {
	rec := NewRecorder("w")
	at := func(ms int) time.Time { return rec.t0.Add(time.Duration(ms) * time.Millisecond) }
	rec.Add(spanExecutor, 0, "a", at(0), at(5)) // recorder still off
	rec.Enable(true)
	rec.SetRoundBase(10)
	rec.Add(spanWrite, 0, "task", at(1), at(2))
	rec.Add(spanWrite, 0, "task", at(2), at(4))
	rec.Add(spanRead, 0, "site", at(0), at(9))
	rec.Add(spanRead, -1, "site", at(0), at(1)) // registration: outside any round
	addScatterGather(rec)
	marks := roundMarks{end: []time.Time{at(12)}}
	marks.addRoundSpans(rec, at(0))
	byName := make(map[string]Span)
	for _, s := range rec.Spans() {
		if s.Round >= 0 {
			if s.Round != 10 {
				t.Errorf("%s has round %d, want 10", s.Name, s.Round)
			}
			byName[s.Name] = s
		}
	}
	if len(rec.Spans()) != 7 {
		t.Fatalf("%d spans, want 7", len(rec.Spans()))
	}
	round, scatter, gather := byName[spanRound], byName[spanScatter], byName[spanGather]
	if scatter.Parent != round.ID || gather.Parent != round.ID {
		t.Errorf("scatter/gather parents %d/%d, want round %d", scatter.Parent, gather.Parent, round.ID)
	}
	if byName[spanWrite].Parent != scatter.ID || byName[spanRead].Parent != gather.ID {
		t.Errorf("write/read are not nested under scatter/gather")
	}
	if scatter.Dur() != 3*time.Millisecond || gather.Dur() != 5*time.Millisecond {
		t.Errorf("scatter %v gather %v, want 3ms and 5ms", scatter.Dur(), gather.Dur())
	}
	if self := selfTimes(rec.Spans())[round.ID]; self != 4*time.Millisecond {
		t.Errorf("round self time %v, want 4ms (12 - scatter 3 - gather 5)", self)
	}
}

func TestStatistics(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd: %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even: %v", got)
	}
	if got := percentile([]float64{5, 1, 4, 2, 3}, 95); got != 5 {
		t.Errorf("p95 of 5: %v", got)
	}
	v := make([]float64, 300)
	for i := range v {
		v[i] = float64(i + 1)
	}
	if got := percentile(v, 95); got != 285 {
		t.Errorf("p95 of 1..300: %v, want 285 (15 samples beyond)", got)
	}
	// statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) == [3.5, 13.5, 31.0]
	spread := quartileSpread([]float64{1, 2, 4, 7, 11, 16, 22, 29, 37, 46})
	if want := (31.0 - 3.5) / 13.5; math.Abs(spread-want) > 1e-12 {
		t.Errorf("quartile spread %v, want %v", spread, want)
	}
	// statistics.quantiles([10, 12], n=4) == [9.5, 11.0, 12.5]
	if got, want := quartileSpread([]float64{10, 12}), 3.0/11; math.Abs(got-want) > 1e-12 {
		t.Errorf("two-point quartile spread %v, want %v", got, want)
	}
}

func TestJudge(t *testing.T) {
	series := func(v ...float64) Series { return Series{Median: median(v), Values: v} }
	spec := func(name string) e2eSpec {
		for _, s := range endToEnd {
			if s.Name == name {
				return s
			}
		}
		t.Fatalf("no spec %s", name)
		return e2eSpec{}
	}
	wall, rate := spec("wall_s"), spec("updates_per_s")
	tight := func(c float64) Series { return series(c*0.99, c, c, c*1.01) }
	cases := []struct {
		name string
		spec e2eSpec
		a, b Series
		want string
	}{
		{"within bound", wall, tight(10), tight(10 * (1 + wall.Bound*0.9)), verdictOK},
		{"faster is fine", wall, tight(10), tight(5), verdictOK},
		{"slower than bound", wall, tight(10), tight(10 * (1 + wall.Bound*1.1)), verdictWorse},
		{"throughput fell", rate, tight(100), tight(100 * (1 - rate.Bound*1.1)), verdictWorse},
		{"throughput rose", rate, tight(100), tight(150), verdictOK},
		{"spread wider than bound", wall, series(5, 8, 12, 15), tight(10), verdictUnresolved},
		{"exact equal", spec("bytes_up_per_round"), series(7), series(7), verdictOK},
		{"exact differs", spec("final_loss"), series(0.5), series(0.5000001), verdictWorse},
		{"failures rose", spec("fail_ratio"), series(0), series(0.01), verdictWorse},
		{"failures flat", spec("fail_ratio"), series(0), series(0), verdictOK},
	}
	for _, c := range cases {
		if got := judge(c.spec, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// TestCompareResults checks the table's exit status on a synthetic pair.
func TestCompareResults(t *testing.T) {
	build := func(wall float64) *Results {
		res := &Results{Workloads: make(map[string]*WorkloadResult)}
		for _, w := range workloads {
			wr := &WorkloadResult{EndToEnd: make(map[string]Series)}
			for _, s := range endToEnd {
				if s.appliesTo(w.Name) {
					wr.EndToEnd[s.Name] = Series{Median: 1, Values: []float64{1}}
				}
			}
			wr.EndToEnd["wall_s"] = Series{Median: wall, Values: []float64{wall}}
			res.Workloads[w.Name] = wr
		}
		return res
	}
	var out bytes.Buffer
	if worse := compareResults(build(10), build(10.5), &out); worse != 0 {
		t.Errorf("5%% slower: %d worse, want 0\n%s", worse, out.String())
	}
	out.Reset()
	if worse := compareResults(build(10), build(20), &out); worse != len(workloads) {
		t.Errorf("2x slower: %d worse, want %d\n%s", worse, len(workloads), out.String())
	}
	if !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("table does not say %q:\n%s", verdictWorse, out.String())
	}
}
