// Package plan is the capacity-planner sweep driver on top of
// internal/sim: it fans a parameter grid (codec × deadline ×
// sample-fraction × quorum × client-count) across up to GOMAXPROCS
// goroutines, runs one multiplexed scenario per cell, and renders the
// results as deterministic JSON and markdown capacity reports (see
// report.go). Each cell's seed is a pure function of the grid seed and
// the cell's own parameters, so a single cell replays byte-identically on
// its own — or inside a differently-shaped grid — and the checked-in
// baseline report (docs/capacity/) regenerates byte-for-byte at any
// GOMAXPROCS.
package plan

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"clinfl/internal/sim"
)

// Grid is a declarative sweep specification: the cross product of the
// axis slices below, sharing one population/compute/fault shape. Axes
// left empty collapse to a single default cell value.
type Grid struct {
	// Name labels the sweep in reports.
	Name string
	// Seed is the base seed; each cell derives its own (see Cell.Seed).
	Seed int64

	// Axes. The cell order is the nested-loop order of these slices:
	// clients, then codec, then deadline, then sample fraction, then
	// quorum fraction.
	Clients         []int
	Codecs          []string
	Deadlines       []time.Duration
	SampleFractions []float64
	QuorumFractions []float64

	// Shared scenario shape for every cell.
	Rounds      int
	RealClients int
	Compute     sim.ComputeProfile
	Faults      sim.FaultProfile
	// FedAsyncAlpha merges post-deadline straggler updates with staleness
	// damping; 0 drops them.
	FedAsyncAlpha float64
}

// withDefaults fills empty axes so Cells never returns an empty product.
func (g Grid) withDefaults() Grid {
	if g.Name == "" {
		g.Name = "sweep"
	}
	if len(g.Clients) == 0 {
		g.Clients = []int{8}
	}
	if len(g.Codecs) == 0 {
		g.Codecs = []string{"raw"}
	}
	if len(g.Deadlines) == 0 {
		g.Deadlines = []time.Duration{0}
	}
	if len(g.SampleFractions) == 0 {
		g.SampleFractions = []float64{0}
	}
	if len(g.QuorumFractions) == 0 {
		g.QuorumFractions = []float64{0.5}
	}
	if g.Rounds <= 0 {
		g.Rounds = 5
	}
	return g
}

// Cell is one point of the grid.
type Cell struct {
	Clients        int
	Codec          string
	Deadline       time.Duration
	SampleFraction float64
	QuorumFraction float64
	// Seed is the cell's derived scenario seed: the grid seed XOR a hash
	// of the cell's canonical key. Editing the grid's axes never changes
	// an existing cell's seed, so sweep results are stable under grid
	// growth and any single cell can be replayed in isolation.
	Seed int64
}

// Key is the cell's canonical parameter string — the hash input for its
// seed and its identity in reports and replay tooling.
func (c Cell) Key() string {
	return fmt.Sprintf("clients=%d codec=%s deadline=%s sample=%g quorum=%g",
		c.Clients, c.Codec, c.Deadline, c.SampleFraction, c.QuorumFraction)
}

// cellSeed hashes a cell key into the grid's seed space.
func cellSeed(base int64, key string) int64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	// Keep the result positive: scenario seeds flow into user-visible
	// names and replay flags.
	return int64((uint64(base) ^ h.Sum64()) &^ (1 << 63))
}

// Cells enumerates the grid's cross product in deterministic nested-loop
// order.
func (g Grid) Cells() []Cell {
	g = g.withDefaults()
	var out []Cell
	for _, n := range g.Clients {
		for _, codec := range g.Codecs {
			for _, d := range g.Deadlines {
				for _, sf := range g.SampleFractions {
					for _, qf := range g.QuorumFractions {
						c := Cell{Clients: n, Codec: codec, Deadline: d, SampleFraction: sf, QuorumFraction: qf}
						c.Seed = cellSeed(g.Seed, c.Key())
						out = append(out, c)
					}
				}
			}
		}
	}
	return out
}

// Scenario materializes one cell as a sim.Scenario under the grid's
// shared shape. The quorum fraction becomes MinUpdates over the per-round
// sampled count, mirroring NVFlare's wait_time_after_min_received
// fast-path sizing.
func (g Grid) Scenario(c Cell) sim.Scenario {
	g = g.withDefaults()
	sampled := c.Clients
	if c.SampleFraction > 0 && c.SampleFraction < 1 {
		sampled = int(math.Ceil(c.SampleFraction * float64(c.Clients)))
	}
	minUpdates := int(c.QuorumFraction * float64(sampled))
	if minUpdates < 1 {
		minUpdates = 1
	}
	return sim.Scenario{
		Name:           fmt.Sprintf("%s/%s", g.Name, c.Key()),
		Seed:           c.Seed,
		Clients:        c.Clients,
		RealClients:    g.RealClients,
		Rounds:         g.Rounds,
		SampleFraction: c.SampleFraction,
		MinUpdates:     minUpdates,
		MinClients:     minUpdates,
		RoundDeadline:  c.Deadline,
		FedAsyncAlpha:  g.FedAsyncAlpha,
		Validate:       true,
		Codecs:         []string{c.Codec},
		Compute:        g.Compute,
		Faults:         g.Faults,
	}
}

// Run sweeps the grid and returns the report. At most GOMAXPROCS
// goroutines drain the cells: each claims the next cell from an atomic
// cursor and writes its result by index, so the report's cell order is
// the grid order no matter how the goroutines interleave. The
// report carries only virtual-time and counter metrics, so it is a pure
// function of the grid — real elapsed time is returned separately for
// operator feedback and must never be serialized into a report.
func (g Grid) Run() (*Report, time.Duration, error) {
	g = g.withDefaults()
	start := time.Now()
	cells := g.Cells()
	results := make([]CellResult, len(cells))
	errs := make([]error, len(cells))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(len(cells), runtime.GOMAXPROCS(0)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(cells); i = int(next.Add(1)) - 1 {
				res, err := g.Scenario(cells[i]).Run()
				if err != nil {
					errs[i] = fmt.Errorf("plan: cell %q: %w", cells[i].Key(), err)
					continue
				}
				results[i] = summarize(cells[i], res)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, 0, err
		}
	}
	rep := &Report{
		Name:        g.Name,
		Seed:        g.Seed,
		Rounds:      g.Rounds,
		RealClients: g.RealClients,
		Cells:       results,
	}
	return rep, time.Since(start), nil
}

// summarize reduces one cell's run to the report metrics. Everything here
// derives from virtual-clock durations and deterministic counters.
func summarize(c Cell, res *sim.RunResult) CellResult {
	out := CellResult{
		Cell:           c,
		Rounds:         len(res.Result.History.Rounds),
		VirtualSeconds: res.VirtualElapsed.Seconds(),
		InitialMSE:     res.InitialMSE,
		FinalMSE:       res.FinalMSE,
	}
	var sampled, participants, late, failures int
	for _, rec := range res.Result.History.Rounds {
		sampled += len(rec.Sampled)
		participants += len(rec.Participants)
		late += len(rec.LateApplied) + len(rec.LateDropped)
		failures += len(rec.Failures)
	}
	if out.Rounds > 0 {
		out.MeanParticipants = float64(participants) / float64(out.Rounds)
		out.UpBytesPerRound = float64(res.BytesUp) / float64(out.Rounds)
		out.DownBytesPerRound = float64(res.BytesDown) / float64(out.Rounds)
	}
	if out.VirtualSeconds > 0 {
		out.RoundsPerSecond = float64(out.Rounds) / out.VirtualSeconds
	}
	if sampled > 0 {
		out.StragglerExclusionRate = float64(late) / float64(sampled)
		out.FailureRate = float64(failures) / float64(sampled)
	}
	return out
}

// sortedCodecs returns the distinct codecs of a cell set in first-seen
// grid order — report tables keep the grid's axis order rather than
// alphabetizing.
func sortedCodecs(cells []CellResult) []string {
	seen := map[string]bool{}
	var out []string
	for _, c := range cells {
		if !seen[c.Codec] {
			seen[c.Codec] = true
			out = append(out, c.Codec)
		}
	}
	return out
}

// sortedClients returns the distinct client counts of a cell set,
// ascending.
func sortedClients(cells []CellResult) []int {
	seen := map[int]bool{}
	var out []int
	for _, c := range cells {
		if !seen[c.Clients] {
			seen[c.Clients] = true
			out = append(out, c.Clients)
		}
	}
	sort.Ints(out)
	return out
}

// sortedDeadlines returns the distinct deadlines of a cell set, ascending.
func sortedDeadlines(cells []CellResult) []time.Duration {
	seen := map[time.Duration]bool{}
	var out []time.Duration
	for _, c := range cells {
		if !seen[c.Deadline] {
			seen[c.Deadline] = true
			out = append(out, c.Deadline)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
