package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// Series is one end-to-end metric over the untraced repeats of a workload.
type Series struct {
	Median float64   `json:"median"`
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	N      int       `json:"n,omitempty"` // samples behind each value
}

// WorkloadResult is one workload's entry in results.json: end-to-end
// numbers from the untraced runs only, per-layer numbers from the traced run.
type WorkloadResult struct {
	Why       string            `json:"why"`
	EndToEnd  map[string]Series `json:"end_to_end"`
	PerLayer  Metrics           `json:"per_layer"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Checks    []Check           `json:"checks"`
}

// Results is bench/out/results.json, the file -compare reads.
type Results struct {
	Seed      int64                      `json:"seed"`
	Seconds   int                        `json:"seconds"`
	Smoke     bool                       `json:"smoke,omitempty"`
	Env       Env                        `json:"env"`
	Workloads map[string]*WorkloadResult `json:"workloads"`
	// Claim is always null: the benchmark measures, it claims no gain.
	Claim *string `json:"claim"`
}

// runAll runs every workload in a child process of its own (this binary
// re-executed with -workload): untraced first, `runs` times, for the
// end-to-end numbers, then once traced for the per-layer numbers.
func runAll(cfg config, runs int, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	res := &Results{Seed: cfg.seed, Seconds: cfg.seconds, Smoke: cfg.smoke, Workloads: make(map[string]*WorkloadResult)}
	failed := 0
	for _, spec := range workloads {
		wr := &WorkloadResult{Why: spec.Why, EndToEnd: make(map[string]Series)}
		res.Workloads[spec.Name] = wr
		for i := 0; i < runs; i++ {
			run, err := runChild(self, spec.Name, cfg, false, stderr)
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			res.Env = run.Env
			wr.absorbUntraced(run)
		}
		traced, err := runChild(self, spec.Name, cfg, true, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		wr.PerLayer = make(Metrics, len(perLayer)+len(crossWorkload))
		for _, s := range perLayer {
			wr.PerLayer[s.Name] = traced.Metrics[s.Name]
		}
		wr.Attempted += traced.Attempted
		wr.Failed += traced.Failed
		wr.Checks = append(wr.Checks, traced.Checks...)
		if base := wr.EndToEnd["wall_s"].Median; base > 0 {
			wr.PerLayer.set("trace.overhead_ratio", traced.Metrics["wall_s"].Value/base)
		}
		failed += wr.Failed
		printWorkload(stdout, spec.Name, wr)
	}
	tls, dur := res.Workloads[wlFanin16TLS], res.Workloads[wlFanin16Durabl]
	if base := dur.EndToEnd["updates_per_s"].Median; base > 0 {
		tax := tls.EndToEnd["updates_per_s"].Median / base
		dur.PerLayer.set("durable.round_tax_ratio", tax)
		fmt.Fprintf(stdout, "durable.round_tax_ratio %.4f ratio (mean round time, %s over %s)\n", tax, wlFanin16Durabl, wlFanin16TLS)
	}
	path := filepath.Join(cfg.outDir, "results.json")
	if err := writeJSON(path, res); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	summary, _ := json.Marshal(struct {
		Results   string  `json:"results"`
		Workloads int     `json:"workloads"`
		Failed    int     `json:"failed"`
		Claim     *string `json:"claim"`
	}{path, len(res.Workloads), failed, nil})
	fmt.Fprintf(stdout, "%s\n", summary)
	if failed > 0 {
		return 1
	}
	return 0
}

// absorbUntraced appends one untraced run's end-to-end values.
func (wr *WorkloadResult) absorbUntraced(run *Run) {
	for _, spec := range endToEnd {
		v, ok := run.Metrics[spec.Name]
		if !ok {
			continue
		}
		s := wr.EndToEnd[spec.Name]
		s.Unit, s.N = v.Unit, v.N
		s.Values = append(s.Values, v.Value)
		s.Median = median(s.Values)
		wr.EndToEnd[spec.Name] = s
	}
	wr.Attempted += run.Attempted
	wr.Failed += run.Failed
	wr.Checks = append(wr.Checks, run.Checks...)
}

// runChild runs one workload in a child process and reads back the
// record it wrote. The child's report is shown only when it failed.
func runChild(self, workload string, cfg config, traced bool, stderr io.Writer) (*Run, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	args := []string{
		"-workload", workload, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.Itoa(cfg.seconds), "-trace", trace, "-out", cfg.outDir, "-waldir", cfg.walDir,
	}
	if cfg.smoke {
		args = append(args, "-smoke")
	}
	path := runFile(cfg.outDir, workload, traced)
	_ = os.Remove(path)
	var report bytes.Buffer
	cmd := exec.Command(self, args...)
	cmd.Stdout = &report
	cmd.Stderr = stderr
	runErr := cmd.Run()
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%s produced no result (%v)", workload, runErr)
	}
	if runErr != nil {
		_, _ = stderr.Write(report.Bytes())
	}
	run := &Run{}
	if err := json.Unmarshal(blob, run); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return run, nil
}

func printWorkload(w io.Writer, name string, wr *WorkloadResult) {
	fmt.Fprintf(w, "== %s\n", name)
	for _, spec := range endToEnd {
		s, ok := wr.EndToEnd[spec.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-36s %16.6g %-6s runs=%d", spec.Name, s.Median, s.Unit, len(s.Values))
		if s.N > 0 {
			fmt.Fprintf(w, " n=%d", s.N)
		}
		fmt.Fprintln(w)
	}
	for _, spec := range append(append([]layerSpec(nil), perLayer...), crossWorkload...) {
		if v, ok := wr.PerLayer[spec.Name]; ok && v.Value != 0 {
			fmt.Fprintf(w, "  %-36s %16.6g %s\n", spec.Name, v.Value, v.Unit)
		}
	}
	for _, c := range wr.Checks {
		if !c.OK {
			fmt.Fprintf(w, "  check %s FAILED: %s\n", c.Name, c.Detail)
		}
	}
	fmt.Fprintf(w, "  attempted=%d failed=%d\n", wr.Attempted, wr.Failed)
}
