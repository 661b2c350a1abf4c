package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"clinfl/internal/tensor"
)

// processStart approximates process start: package initialisation runs
// before main, a few hundred microseconds after exec.
var processStart = time.Now()

// setupPasses is how often each workload sets up in one run; setup_s is
// the median, so one pass that lands in a slow phase of the box is ignored.
const setupPasses = 3

// passStart is where a set-up pass's clock starts: the first pass is
// charged everything since the process started.
func passStart(pass int) time.Time {
	if pass == 0 {
		return processStart
	}
	return time.Now()
}

// Env is the environment block printed with every result.
type Env struct {
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Kernel     string `json:"tensor_kernel"`
	WALDir     string `json:"wal_dir"`
	WALFS      string `json:"wal_fs"`
}

// Check is one output verification.
type Check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// Run is everything one workload run produced. Attempted counts client
// updates the workload asked for plus correctness checks made; Failed
// counts the updates that failed or went missing plus the checks that
// did not hold.
type Run struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Seconds   int     `json:"seconds"`
	Smoke     bool    `json:"smoke,omitempty"`
	Traced    bool    `json:"traced"`
	Env       Env     `json:"env"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Checks    []Check `json:"checks"`
	Metrics   Metrics `json:"metrics"`
}

// config is what a workload needs to run.
type config struct {
	seed    int64
	seconds int
	smoke   bool
	outDir  string    // run records, traces, results.json
	walDir  string    // fanin16_durable's logs
	rec     *Recorder // nil: untraced
}

func (c config) traced() bool { return c.rec != nil }

// sizes are the round counts and rosters of one profile. The shape of a
// workload never changes with -seconds; only how many rounds it times.
type sizes struct {
	bertModel                                 string
	bertSites, bertPerSite, bertHeldOut       int
	bertRounds                                int
	faninSites, faninWarmRounds, tlsRounds    int
	durableFeds, durableRounds                int
	simClients, simRuns, simRounds            int
	simSmall, simSmallRounds, simCheckN       int
	gemmIters, walAppendIters, standaloneReps int
}

// sizesFor scales the timed sections so that, at the parent commit on the
// 2-core reference box, each lasts about `seconds`; the floors keep enough
// samples for the medians (>= 12 BERT rounds, >= 200 TLS rounds for a p95
// with 10 samples beyond it).
func sizesFor(seconds int, smoke bool) sizes {
	if smoke {
		return sizes{
			bertModel: "bert-mini", bertSites: 4, bertPerSite: 8, bertHeldOut: 16,
			bertRounds: 2,
			faninSites: 4, faninWarmRounds: 1, tlsRounds: 3,
			durableFeds: 1, durableRounds: 3,
			simClients: 500, simRuns: 1, simRounds: 3, simSmall: 100, simSmallRounds: 3, simCheckN: 100,
			gemmIters: 20, walAppendIters: 5, standaloneReps: 3,
		}
	}
	atLeast := func(floor int, perSecond float64) int {
		if n := int(math.Round(perSecond * float64(seconds))); n > floor {
			return n
		}
		return floor
	}
	return sizes{
		bertModel: "bert", bertSites: 4, bertPerSite: 8, bertHeldOut: 16,
		bertRounds: atLeast(12, 0.5),
		faninSites: 16, faninWarmRounds: 10, tlsRounds: atLeast(200, 10),
		// Many short federations, not a few long ones: a log is 57 MB per
		// round, and the checkout's disk may be small.
		durableFeds: atLeast(12, 0.6), durableRounds: 5,
		// Many short runs, not a few long ones: the fastest of twelve 1.2 s
		// runs finds the box's fast phase, the fastest of three 6 s runs
		// does not (5-11% against 20% spread over ten seeds).
		simClients: 30000, simRuns: atLeast(12, 0.6), simRounds: 2,
		simSmall: 3000, simSmallRounds: 8, simCheckN: 1000,
		gemmIters: 200, walAppendIters: 50, standaloneReps: 9,
	}
}

func newRun(workload string, cfg config) *Run {
	return &Run{
		Workload: workload, Seed: cfg.seed, Seconds: cfg.seconds, Smoke: cfg.smoke,
		Traced: cfg.traced(), Env: environment(cfg.walDir), Metrics: make(Metrics),
	}
}

// updates accounts client updates: want were asked for, got arrived.
func (r *Run) updates(want, got int) {
	r.Attempted += want
	if got < want {
		r.Failed += want - got
	}
}

// check records one verification; a failed one counts in fail_ratio.
func (r *Run) check(name string, ok bool, format string, args ...any) {
	r.Attempted++
	c := Check{Name: name, OK: ok}
	if !ok {
		r.Failed++
		c.Detail = fmt.Sprintf(format, args...)
	}
	r.Checks = append(r.Checks, c)
}

// Correct reports whether every update arrived and every check held.
func (r *Run) Correct() bool { return r.Failed == 0 }

// failRatio is failed over attempted.
func (r *Run) failRatio() float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// environment fills the block printed with each result.
func environment(walDir string) Env {
	return Env{
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel:     tensor.KernelVariant(),
		WALDir:     walDir,
		WALFS:      filesystemOf(walDir),
	}
}

// filesystemOf names the filesystem type holding dir from /proc/mounts
// (longest mount-point prefix wins); "unknown" where there is no procfs.
func filesystemOf(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	f, err := os.Open("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	best, fs := "", "unknown"
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 {
			continue
		}
		mp := fields[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, fs = mp, fields[2]
		}
	}
	return fs
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM);
// 0 where /proc is absent.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				kb, _ := strconv.ParseFloat(fields[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// goStats snapshots the runtime counters the go.* metrics are deltas of.
type goStats struct {
	alloc   uint64
	gc      uint32
	pauseNS uint64
}

func readGoStats() goStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return goStats{alloc: ms.TotalAlloc, gc: ms.NumGC, pauseNS: ms.PauseTotalNs}
}

// setGoMetrics stores the go.* per-layer metrics for a timed section that
// ran `rounds` rounds between the two snapshots.
func setGoMetrics(m Metrics, before, after goStats, rounds int) {
	m.set("go.alloc_mb_per_round", float64(after.alloc-before.alloc)/(1<<20)/float64(rounds))
	m.set("go.gc_cycles", float64(after.gc-before.gc))
	m.set("go.gc_pause_ms_total", float64(after.pauseNS-before.pauseNS)/1e6)
	m.set("go.peak_rss_mb", peakRSSMB())
}

// timeIt runs fn reps times and returns the median duration in seconds.
func timeIt(reps int, fn func() error) (float64, error) {
	d := make([]float64, reps)
	for i := range d {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		d[i] = time.Since(start).Seconds()
	}
	return median(d), nil
}

func ms(seconds float64) float64 { return seconds * 1e3 }
func us(seconds float64) float64 { return seconds * 1e6 }
