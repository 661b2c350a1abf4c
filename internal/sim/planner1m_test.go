//go:build sim1m

package sim

import "testing"

// TestPlanner1MSmoke is the planner smoke's 1M-client cell: the streaming
// tier scenario at a million clients for one round, every client sampled
// and every update folded, so the round engine's per-client state is at
// its largest. It takes seconds and over a gigabyte of memory, so it
// builds only under the sim1m tag:
//
//	go test -tags sim1m -count=1 -run TestPlanner1MSmoke -v ./internal/sim
func TestPlanner1MSmoke(t *testing.T) {
	const clients = 1_000_000
	sc := TierScenario(7, clients)
	sc.Rounds = 1
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	rounds := res.Result.History.Rounds
	if len(rounds) != 1 {
		t.Fatalf("completed %d rounds, want 1", len(rounds))
	}
	if got := len(rounds[0].Sampled); got != clients {
		t.Fatalf("sampled %d clients, want all %d", got, clients)
	}
	if got := len(rounds[0].Participants); got != clients {
		t.Fatalf("%d participants, want all %d", got, clients)
	}
	t.Logf("%d clients x 1 round: %v real, %v virtual", clients, res.RealElapsed, res.VirtualElapsed)
}
