// Command bench is the repository's benchmark: four federation workloads,
// each run in its own process, measured from outside the product by
// timing calls into the layers' public functions and by wrapping the
// interfaces the product exposes for injection. See README.md.
//
//	go run ./bench                         # every workload, untraced then traced
//	go run ./bench -workload fanin16_tls   # one workload; last stdout line is JSON
//	go run ./bench -compare a.json b.json  # gate two results.json files
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

// defaultSeconds matches run_seconds in BENCHMARK.json.
const defaultSeconds = 20

// defaultOutDir holds run artefacts (results.json, traces, WAL files); the
// root .gitignore keeps it out of the tree.
const defaultOutDir = "bench/out"

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run one workload (site4_bert, fanin16_tls, fanin16_durable, tier30k_sim); empty runs all four")
	seed := fs.Int64("seed", 1, "generates every input: cohort, stub updates, scenario")
	seconds := fs.Int("seconds", defaultSeconds, "sizes each timed section (about this long at the parent commit)")
	trace := fs.Int("trace", 0, "1 installs the wrappers, records spans and reports per-layer metrics")
	smoke := fs.Bool("smoke", false, "tiny profile for tests: seconds, not minutes")
	outDir := fs.String("out", defaultOutDir, "directory for results.json, run records and traces")
	walDir := fs.String("waldir", "", "directory for fanin16_durable's WAL files (default: the -out directory)")
	runs := fs.Int("runs", 1, "all-workloads mode: untraced repeats per workload (their spread feeds -compare)")
	compare := fs.Bool("compare", false, "compare two results.json files given as arguments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two results.json files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "bench: unexpected arguments %v\n", fs.Args())
		return 2
	}
	if *seconds < 1 || *runs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: -seconds and -runs must be >= 1, -trace 0 or 1")
		return 2
	}
	// Load shape: at most four cores, no threads beyond the Go runtime's.
	if runtime.NumCPU() > 4 {
		runtime.GOMAXPROCS(4)
	}
	if *walDir == "" {
		*walDir = *outDir
	}
	for _, dir := range []string{*outDir, *walDir} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	cfg := config{seed: *seed, seconds: *seconds, smoke: *smoke, outDir: *outDir, walDir: *walDir}
	if *workload == "" {
		return runAll(cfg, *runs, stdout, stderr)
	}
	if *trace == 1 {
		cfg.rec = NewRecorder(*workload)
	}
	run, err := runWorkload(*workload, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	printRun(stdout, run)
	if err := writeJSON(runFile(cfg.outDir, *workload, cfg.traced()), run); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	// The harness reads the last line: exactly these four keys, and only
	// the metrics BENCHMARK.json declares for this mode.
	line, err := json.Marshal(harnessLine(run))
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !run.Correct() {
		return 1
	}
	return 0
}

// runWorkload runs one workload in this process and completes its metric
// set: fail_ratio and — in a traced run — the pool width, the trace's own
// numbers, the workload-specific end-to-end metrics under their e2e.
// names, and a zero for every per-layer metric whose layer the workload
// does not touch. A traced run still carries the end-to-end names, but
// nothing reports them: end-to-end numbers come from untraced runs only.
func runWorkload(name string, cfg config) (*Run, error) {
	var runner func(config) (*Run, error)
	for _, w := range workloads {
		if w.Name == name {
			runner = w.Run
		}
	}
	if runner == nil {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	run, err := runner(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	m := run.Metrics
	m.set("fail_ratio", run.failRatio())
	if !cfg.traced() {
		return run, nil
	}
	m.set("sched.pool_width", float64(run.Env.GOMAXPROCS))
	m.set("trace.spans", float64(len(cfg.rec.Spans())))
	for _, s := range endToEnd {
		if v, ok := m[s.Name]; ok && !s.Driver {
			m[e2ePrefix+s.Name] = v
		}
	}
	for _, s := range perLayer {
		if _, ok := m[s.Name]; !ok {
			m.set(s.Name, 0)
		}
	}
	if err := cfg.rec.WriteFile(filepath.Join(cfg.outDir, "trace-"+name+".json")); err != nil {
		return nil, err
	}
	return run, nil
}

// harnessResult is the last stdout line of a single-workload run.
type harnessResult struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   Metrics `json:"metrics"`
}

func harnessLine(run *Run) harnessResult {
	out := harnessResult{Correct: run.Correct(), Attempted: run.Attempted, Failed: run.Failed, Metrics: make(Metrics)}
	put := func(name string) { // value and unit only: the harness allows no other key
		v := run.Metrics[name]
		out.Metrics[name] = Metric{Value: v.Value, Unit: v.Unit}
	}
	if run.Traced {
		for _, s := range perLayer {
			put(s.Name)
		}
	} else {
		for _, s := range endToEnd {
			if s.Driver {
				put(s.Name)
			}
		}
	}
	return out
}

func runFile(outDir, workload string, traced bool) string {
	kind := "untraced"
	if traced {
		kind = "traced"
	}
	return filepath.Join(outDir, "run-"+workload+"-"+kind+".json")
}

func writeJSON(path string, v any) error {
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// printRun prints the environment, every metric by name with its unit,
// and the checks.
func printRun(w io.Writer, run *Run) {
	mode := "untraced"
	if run.Traced {
		mode = "traced"
	}
	e := run.Env
	fmt.Fprintf(w, "== %s (%s) seed=%d seconds=%d\n", run.Workload, mode, run.Seed, run.Seconds)
	fmt.Fprintf(w, "env: %s nproc=%d GOMAXPROCS=%d kernel=%s waldir=%s (%s)\n",
		e.GoVersion, e.NProc, e.GOMAXPROCS, e.Kernel, e.WALDir, e.WALFS)
	value := func(name string, v Metric) string {
		line := fmt.Sprintf("  %-36s %16.6g %-6s", name, v.Value, v.Unit)
		if v.N > 0 {
			line += fmt.Sprintf(" n=%d", v.N)
		}
		return line
	}
	if run.Traced {
		// End-to-end names are reported by untraced runs only.
		for _, s := range perLayer {
			fmt.Fprintf(w, "%s  [%s; %s]\n", value(s.Name, run.Metrics[s.Name]), s.How, s.Moves)
		}
	} else {
		for _, s := range endToEnd {
			if v, ok := run.Metrics[s.Name]; ok {
				fmt.Fprintln(w, value(s.Name, v))
			}
		}
	}
	for _, c := range run.Checks {
		if c.OK {
			fmt.Fprintf(w, "  check %-30s ok\n", c.Name)
		} else {
			fmt.Fprintf(w, "  check %-30s FAILED: %s\n", c.Name, c.Detail)
		}
	}
	fmt.Fprintf(w, "  attempted=%d failed=%d correct=%v\n", run.Attempted, run.Failed, run.Correct())
}
