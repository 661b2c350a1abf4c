package main

import (
	"math"
	"slices"
	"sort"
)

// Workload names, in the order the all-workloads driver runs them.
const (
	wlSite4BERT     = "site4_bert"
	wlFanin16TLS    = "fanin16_tls"
	wlFanin16Durabl = "fanin16_durable"
	wlTier30kSim    = "tier30k_sim"
)

// workloadSpec names a workload, records why it exists and says how to run
// it; BENCHMARK.json carries the same name and text, and bench_test.go keeps
// the two from drifting.
type workloadSpec struct {
	Name string
	Run  func(config) (*Run, error)
	Why  string
}

var workloads = []workloadSpec{
	{wlSite4BERT, runSite4BERT, "4 sites fine-tune full BERT in-process: kernels, autograd and trainer do over 90% of the work, wire and WAL none"},
	{wlFanin16TLS, runFanin16TLS, "16 stub sites over mutual TLS with int8 both ways: scatter/gather, codec, FedAvg and framing do all the work, GEMM none"},
	{wlFanin16Durabl, runFanin16Durable, "fanin16_tls plus the group-commit WAL, then a timed replay of each log: append and recovery cost are both end to end"},
	{wlTier30kSim, runTier30kSim, "30000 simulated clients through a 64-8-root streaming tier on the virtual clock: simulator and controller bookkeeping, no GEMM/TLS/WAL"},
}

// Bound kinds for -compare.
const (
	boundRatio   = "ratio"   // may worsen by at most Bound × the base median
	boundExact   = "exact"   // must be identical
	boundNoRise  = "no-rise" // must not rise (fail_ratio)
	betterLower  = "lower"
	betterHigher = "higher"
)

// e2eSpec is one end-to-end metric. Driver marks the ones BENCHMARK.json
// lists under end_to_end: the harness wants those on every workload, never
// zero, and steady from run to run, which on this box only set-up time and
// the fastest round are. The rest are emitted where they apply and are
// gated by -compare.
type e2eSpec struct {
	Name      string
	Unit      string
	Better    string
	Kind      string
	Bound     float64
	Driver    bool
	Workloads []string // nil: all
}

// timingBound is the bound of every timed metric. The reference box is a
// shared 2-core VM that alternates, in phases of seconds to minutes, between
// a fast mode and one about 20% slower: ten same-commit runs of site4_bert
// spread (Q3-Q1)/median = 13-30% on wall_s, so a tighter bound would report
// noise as regressions (see README.md, "Steadiness").
const timingBound = 0.25

var endToEnd = []e2eSpec{
	{Name: "setup_s", Unit: "s", Better: betterLower, Kind: boundRatio, Bound: timingBound, Driver: true},
	{Name: "round_min_s", Unit: "s", Better: betterLower, Kind: boundRatio, Bound: timingBound, Driver: true},
	{Name: "wall_s", Unit: "s", Better: betterLower, Kind: boundRatio, Bound: timingBound},
	{Name: "updates_per_s", Unit: "1/s", Better: betterHigher, Kind: boundRatio, Bound: timingBound},
	{Name: "round_p50_s", Unit: "s", Better: betterLower, Kind: boundRatio, Bound: timingBound, Workloads: []string{wlSite4BERT, wlFanin16TLS}},
	{Name: "round_p95_s", Unit: "s", Better: betterLower, Kind: boundRatio, Bound: timingBound, Workloads: []string{wlFanin16TLS}},
	{Name: "samples_per_s", Unit: "1/s", Better: betterHigher, Kind: boundRatio, Bound: timingBound, Workloads: []string{wlSite4BERT}},
	{Name: "bytes_up_per_round", Unit: "B", Better: betterLower, Kind: boundExact, Workloads: []string{wlFanin16TLS, wlFanin16Durabl, wlTier30kSim}},
	{Name: "bytes_down_per_round", Unit: "B", Better: betterLower, Kind: boundExact, Workloads: []string{wlFanin16TLS, wlFanin16Durabl, wlTier30kSim}},
	{Name: "wal_bytes_per_round", Unit: "B", Better: betterLower, Kind: boundExact, Workloads: []string{wlFanin16Durabl}},
	{Name: "recover_s", Unit: "s", Better: betterLower, Kind: boundRatio, Bound: timingBound, Workloads: []string{wlFanin16Durabl}},
	{Name: "final_loss", Unit: "loss", Better: betterLower, Kind: boundExact, Workloads: []string{wlSite4BERT, wlTier30kSim}},
	{Name: "fail_ratio", Unit: "ratio", Better: betterLower, Kind: boundNoRise},
}

// appliesTo reports whether the metric is defined on the workload.
func (s e2eSpec) appliesTo(workload string) bool {
	return s.Workloads == nil || slices.Contains(s.Workloads, workload)
}

// layerSpec is one per-layer metric, named <package>.<what>: how it is
// measured, and the end-to-end metric (on which workload) it is expected to
// move — written down before measuring, printed beside every traced value.
type layerSpec struct {
	Name   string
	Unit   string
	Better string
	How    string // "standalone", "span", "count", "derived", "traced"
	Moves  string
}

// e2ePrefix marks the end-to-end metrics that are not defined on every
// workload when they ride in the traced run's per-layer set.
const e2ePrefix = "e2e."

var perLayer = []layerSpec{
	{"tensor.gemm_gflops", "GF/s", betterHigher, "standalone", "round_p50_s on site4_bert"},
	{"model.forward_ms", "ms", betterLower, "standalone", "round_p50_s on site4_bert"},
	{"train.step_ms", "ms", betterLower, "span", "round_p50_s, samples_per_s on site4_bert"},
	{"opt.adam_ms", "ms", betterLower, "standalone", "round_p50_s, samples_per_s on site4_bert"},
	{"autograd.backward_ms", "ms", betterLower, "derived", "round_p50_s, samples_per_s on site4_bert"},
	{"model.validate_ms_per_round", "ms", betterLower, "span", "round_p50_s on site4_bert"},
	{"sched.fanout_us", "us", betterLower, "standalone", "round_p50_s on site4_bert"},
	{"sched.pool_width", "count", betterHigher, "count", "context for every timing"},
	{"ehr.generate_ms", "ms", betterLower, "span", "setup_s on site4_bert"},
	{"token.encode_ms", "ms", betterLower, "span", "setup_s on site4_bert"},
	{"provision.provision_ms", "ms", betterLower, "span", "setup_s on fanin16_*"},
	{"transport.handshake_ms", "ms", betterLower, "span", "setup_s on fanin16_*"},
	{"fl.executor.busy_s_per_round", "s", betterLower, "span", "round_p50_s on site4_bert; ~0 on fanin16_*"},
	{"fl.executor.max_s_per_round", "s", betterLower, "span", "round_p50_s on site4_bert"},
	{"fl.controller.self_ms_per_round", "ms", betterLower, "derived", "round_p50_s on site4_bert, updates_per_s on tier30k_sim"},
	{"fl.round.uncovered_ratio", "ratio", betterLower, "derived", "share of wall_s outside every RoundRecord.Duration and the validate hook; ties round_p50_s to wall_s"},
	{"fl.aggregate.ms_per_round", "ms", betterLower, "span", "round_p50_s on fanin16_tls"},
	{"fl.codec.encode_ms_per_update", "ms", betterLower, "standalone", "round_p50_s, updates_per_s on fanin16_tls"},
	{"fl.codec.decode_ms_per_update", "ms", betterLower, "standalone", "round_p50_s, updates_per_s on fanin16_tls"},
	{"fl.codec.wire_ratio", "ratio", betterLower, "count", "bytes_up_per_round, bytes_down_per_round on fanin16_*"},
	{"fl.server.scatter_ms_per_round", "ms", betterLower, "span", "round_p50_s, bytes_down_per_round on fanin16_tls"},
	{"fl.server.gather_ms_per_round", "ms", betterLower, "span", "round_p50_s, round_p95_s on fanin16_tls"},
	{"fl.client.turnaround_ms", "ms", betterLower, "span", "round_p50_s on fanin16_tls"},
	{"transport.write_ms_per_round", "ms", betterLower, "span", "round_p50_s on fanin16_tls"},
	{"transport.read_wait_ms_per_round", "ms", betterLower, "span", "round_p50_s on fanin16_tls"},
	{"transport.msgs_per_round", "count", betterLower, "count", "bytes_*_per_round on fanin16_*"},
	{"transport.wire_bytes_per_round", "B", betterLower, "count", "bytes_*_per_round on fanin16_*"},
	{"durable.appends_per_round", "count", betterLower, "count", "wal_bytes_per_round, round_p50_s on fanin16_durable"},
	{"durable.fsyncs_per_round", "count", betterLower, "count", "wal_bytes_per_round, round_p50_s on fanin16_durable"},
	{"durable.append_update_ms", "ms", betterLower, "standalone", "round_p50_s on fanin16_durable (not fanin16_tls)"},
	{"durable.replay_mb_per_s", "MB/s", betterHigher, "derived", "recover_s on fanin16_durable"},
	{"durable.round_p50_ms", "ms", betterLower, "span", "informational: rounds are bimodal on a real disk, so the median is not repeatable"},
	{"durable.round_p95_ms", "ms", betterLower, "span", "informational: not repeatable on a shared box"},
	{"hier.fold_us_per_update", "us", betterLower, "standalone", "updates_per_s on tier30k_sim"},
	{"hier.merge_us", "us", betterLower, "standalone", "updates_per_s on tier30k_sim"},
	{"hier.finalize_ms", "ms", betterLower, "standalone", "updates_per_s on tier30k_sim"},
	{"hier.partials_per_round", "count", betterLower, "count", "exact on tier30k_sim"},
	{"hier.tier_bytes_up_per_round", "B", betterLower, "count", "exact on tier30k_sim"},
	{"hier.resident_bytes", "B", betterLower, "count", "must not grow with the roster on tier30k_sim"},
	{"sim.wall_us_per_client_round", "us", betterLower, "derived", "updates_per_s on tier30k_sim"},
	{"sim.cost_ratio_30k_over_3k", "ratio", betterLower, "derived", "updates_per_s on tier30k_sim (1.0 = linear)"},
	{"sim.virtual_s_per_wall_s", "ratio", betterHigher, "derived", "updates_per_s on tier30k_sim"},
	{"go.alloc_mb_per_round", "MB", betterLower, "count", "round_p95_s on fanin16_tls; context elsewhere"},
	{"go.gc_cycles", "count", betterLower, "count", "round_p95_s on fanin16_tls; context elsewhere"},
	{"go.gc_pause_ms_total", "ms", betterLower, "count", "round_p95_s on fanin16_tls; context elsewhere"},
	{"go.peak_rss_mb", "MB", betterLower, "count", "context (spread 11% at parent, so not end to end)"},
	{"trace.spans", "count", betterLower, "count", "spans recorded in the timed section"},
	{e2ePrefix + "wall_s", "s", betterLower, "traced", "end-to-end on all; too noisy on a shared box to gate on"},
	{e2ePrefix + "updates_per_s", "1/s", betterHigher, "traced", "end-to-end on all; too noisy on a shared box to gate on"},
	{e2ePrefix + "round_p50_s", "s", betterLower, "traced", "end-to-end on site4_bert, fanin16_tls"},
	{e2ePrefix + "round_p95_s", "s", betterLower, "traced", "end-to-end on fanin16_tls only"},
	{e2ePrefix + "samples_per_s", "1/s", betterHigher, "traced", "end-to-end on site4_bert only"},
	{e2ePrefix + "bytes_up_per_round", "B", betterLower, "traced", "end-to-end on fanin16_*, tier30k_sim"},
	{e2ePrefix + "bytes_down_per_round", "B", betterLower, "traced", "end-to-end on fanin16_*, tier30k_sim"},
	{e2ePrefix + "wal_bytes_per_round", "B", betterLower, "traced", "end-to-end on fanin16_durable only"},
	{e2ePrefix + "recover_s", "s", betterLower, "traced", "end-to-end on fanin16_durable only"},
	{e2ePrefix + "final_loss", "loss", betterLower, "traced", "end-to-end on site4_bert, tier30k_sim"},
	{e2ePrefix + "fail_ratio", "ratio", betterLower, "traced", "end-to-end on all; 0 at parent, so not a driver metric"},
}

// crossWorkload are derived by the all-workloads driver from several
// child runs, so no single run can emit them and BENCHMARK.json omits them.
var crossWorkload = []layerSpec{
	{"durable.round_tax_ratio", "ratio", betterLower, "derived", "mean round time of fanin16_durable over fanin16_tls: updates_per_s(tls) / updates_per_s(durable)"},
	{"trace.overhead_ratio", "ratio", betterLower, "derived", "traced wall_s / untraced wall_s, per workload"},
}

// Metric is one measured value. N is the sample count behind a timing
// statistic (0 when the value is a plain count or total).
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// Metrics maps metric name to value.
type Metrics map[string]Metric

// unitOf looks a metric's declared unit up in the spec tables.
func unitOf(name string) string {
	for _, s := range endToEnd {
		if s.Name == name {
			return s.Unit
		}
	}
	for _, specs := range [][]layerSpec{perLayer, crossWorkload} {
		for _, s := range specs {
			if s.Name == name {
				return s.Unit
			}
		}
	}
	panic("bench: metric " + name + " is not declared in metrics.go")
}

// set stores a value under its declared unit.
func (m Metrics) set(name string, v float64) { m[name] = Metric{Value: v, Unit: unitOf(name)} }

// setN stores a timing statistic with its sample count.
func (m Metrics) setN(name string, v float64, n int) {
	m[name] = Metric{Value: v, Unit: unitOf(name), N: n}
}

// median returns the middle value (mean of the middle two for even n),
// 0 for an empty slice.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100).
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// quartileSpread is (Q3-Q1)/median with the quartiles of Python's
// statistics.quantiles(v, n=4) (exclusive method) — the spread the
// harness computes. It needs at least two values; fewer give 0.
func quartileSpread(v []float64) float64 {
	n := len(v)
	med := median(v)
	if n < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(i int) float64 { // i-th of 4 quantile cut points
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return math.Abs((q(3) - q(1)) / med)
}

func sum(v []float64) float64 {
	var t float64
	for _, x := range v {
		t += x
	}
	return t
}
