// Stragglers: the asynchronous-federation walkthrough. One of four
// hospital sites is a chronic straggler (it starts every round 600 ms
// after the other three have returned); the synchronous scatter-gather
// of the paper blocks each round on it, while the async configuration —
// MinUpdates partial aggregation plus a round deadline — finishes every
// round on the three prompt sites and the quantized f32 uplink halves
// bytes-on-wire. The sweep prints
// accuracy, round time, participation and payload size per scheme, then a
// codec size/error comparison for the model actually federated.
package main

import (
	"context"
	"fmt"
	"math"
	"os"

	"clinfl/internal/core"
	"clinfl/internal/experiments"
	"clinfl/internal/fl"
	"clinfl/internal/nn"
)

func main() {
	fmt.Println("straggler-tolerant federation walkthrough (sync vs async, raw vs f32)")
	fmt.Println()
	if err := (experiments.Stragglers{}).Run(context.Background(), os.Stdout, 4); err != nil {
		fmt.Fprintln(os.Stderr, "stragglers:", err)
		os.Exit(1)
	}

	if err := codecDemo(); err != nil {
		fmt.Fprintln(os.Stderr, "stragglers:", err)
		os.Exit(1)
	}
}

// codecDemo encodes one LSTM weight snapshot with every codec and prints
// payload size and worst-case round-trip error.
func codecDemo() error {
	mdl, err := core.NewModel(core.Config{ModelName: "lstm", MaxLen: 24, Seed: 1}, 256)
	if err != nil {
		return err
	}
	weights := nn.SnapshotWeights(mdl.Params())

	fmt.Println()
	fmt.Println("weight transport codecs (one LSTM model snapshot):")
	raw, err := fl.RawCodec{}.Encode(weights)
	if err != nil {
		return err
	}
	for _, name := range []string{"raw", "f32", "topk:0.1"} {
		codec, err := fl.CodecByName(name)
		if err != nil {
			return err
		}
		blob, err := codec.Encode(weights)
		if err != nil {
			return err
		}
		decoded, err := fl.DecodeWeights(blob)
		if err != nil {
			return err
		}
		var maxErr float64
		for pname, m := range weights {
			d, g := m.Data(), decoded[pname].Data()
			for i := range d {
				maxErr = math.Max(maxErr, math.Abs(d[i]-g[i]))
			}
		}
		fmt.Printf("  %-9s %9d bytes (%5.1f%% of raw)  max abs round-trip error %.3g\n",
			codec.Name(), len(blob), 100*float64(len(blob))/float64(len(raw)), maxErr)
	}
	fmt.Println()
	fmt.Println("flserver -sample/-min-updates/-deadline/-codec and flclient -codec expose")
	fmt.Println("the same knobs over the provisioned mutual-TLS deployment.")
	return nil
}
