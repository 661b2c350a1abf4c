package fl_test

import (
	"math"
	"strconv"
	"testing"
	"time"

	"clinfl/internal/fl"
	"clinfl/internal/fl/hier"
	"clinfl/internal/tensor"
	"clinfl/internal/transport"
)

func leafWeights(scale float64) map[string]*tensor.Matrix {
	m := tensor.New(1, 2)
	m.Data()[0], m.Data()[1] = 1.5*scale, -0.25*scale
	return map[string]*tensor.Matrix{"w": m}
}

func assertBitIdentical(t *testing.T, a, b map[string]*tensor.Matrix, label string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: param count %d vs %d", label, len(a), len(b))
	}
	for name, ma := range a {
		mb, ok := b[name]
		if !ok {
			t.Fatalf("%s: missing param %q", label, name)
		}
		da, db := ma.Data(), mb.Data()
		for i := range da {
			if math.Float64bits(da[i]) != math.Float64bits(db[i]) {
				t.Fatalf("%s: %s[%d] differs: %v vs %v", label, name, i, da[i], db[i])
			}
		}
	}
}

// runLeaf drives one hand-rolled downstream client through register /
// task / update / finish against the edge.
func runLeaf(t *testing.T, net *transport.MemNetwork, name string, reply func(task *transport.Message) *transport.Message) {
	t.Helper()
	conn, err := net.Dial(name, transport.LinkProfile{}, transport.LinkProfile{})
	if err != nil {
		t.Errorf("%s: dial: %v", name, err)
		return
	}
	defer conn.Close()
	if err := conn.Write(&transport.Message{
		Type: transport.MsgRegister, Sender: name, Token: "tok-" + name,
		Meta: map[string]string{transport.MetaCodec: "raw"},
	}); err != nil {
		t.Errorf("%s: register: %v", name, err)
		return
	}
	ack, err := conn.Read()
	if err != nil || ack.Meta["accepted"] != "true" {
		t.Errorf("%s: ack = %v, %v", name, ack, err)
		return
	}
	for {
		msg, err := conn.Read()
		if err != nil {
			return
		}
		switch msg.Type {
		case transport.MsgTask:
			if err := conn.Write(reply(msg)); err != nil {
				t.Errorf("%s: reply: %v", name, err)
				return
			}
		case transport.MsgFinish:
			return
		}
	}
}

// TestEdgeAggregatesShard wires a full edge hop over in-memory links:
// two weight-sending leaves, one child that uplinks an already-merged
// partial (a stacked lower edge), and one failing leaf. The parent must
// receive exactly one partial carrying the merged model, the combined
// accounting, and the recorded failure.
func TestEdgeAggregatesShard(t *testing.T) {
	rootNet := transport.NewMemNetwork()
	edgeNet := transport.NewMemNetwork()
	defer rootNet.Close()
	defer edgeNet.Close()

	edge, err := fl.NewEdge(fl.EdgeConfig{
		Name:  "edge-0",
		Token: "tok-edge-0",
		DialParent: func() (transport.MessageConn, error) {
			return rootNet.Dial("edge-0", transport.LinkProfile{}, transport.LinkProfile{})
		},
		Listener:        edgeNet,
		ExpectedClients: 4,
		RegisterTimeout: 5 * time.Second,
		VerifyToken:     func(name, token string) bool { return token == "tok-"+name },
		RoundDeadline:   5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	edgeDone := make(chan error, 1)
	var edgeRes *fl.EdgeResult
	go func() {
		res, err := edge.Run()
		edgeRes = res
		edgeDone <- err
	}()

	// Two plain leaves.
	for i, scale := range []float64{1, 2} {
		name, samples := "leaf-"+strconv.Itoa(i), 4*(i+1)
		sc := scale
		go runLeaf(t, edgeNet, name, func(task *transport.Message) *transport.Message {
			blob, err := fl.EncodeWeights(leafWeights(sc))
			if err != nil {
				t.Errorf("%s: encode: %v", name, err)
			}
			return &transport.Message{
				Type: transport.MsgUpdate, Sender: name, Round: task.Round,
				Payload: blob, NumSamples: samples,
				Meta: map[string]string{"train_loss": "0.5"},
			}
		})
	}
	// A stacked child edge: its uplink is already a partial.
	childPartial := hier.NewPartial()
	for i, scale := range []float64{3, 4} {
		err := childPartial.Fold(hier.Update{
			ClientName: "deep-" + strconv.Itoa(i),
			Weights:    leafWeights(scale),
			NumSamples: 8,
			TrainLoss:  0.25,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	childBlob, err := hier.EncodePartial(childPartial)
	if err != nil {
		t.Fatal(err)
	}
	go runLeaf(t, edgeNet, "sub-edge", func(task *transport.Message) *transport.Message {
		return &transport.Message{
			Type: transport.MsgUpdate, Sender: "sub-edge", Round: task.Round,
			Payload: childBlob, NumSamples: int(childPartial.Weight()),
		}
	})
	// A leaf whose local training fails.
	go runLeaf(t, edgeNet, "leaf-bad", func(task *transport.Message) *transport.Message {
		return &transport.Message{
			Type: transport.MsgError, Sender: "leaf-bad", Round: task.Round,
			Meta: map[string]string{"error": "exec: out of memory"},
		}
	})

	// The test plays the parent.
	parent, err := rootNet.AcceptConn()
	if err != nil {
		t.Fatal(err)
	}
	defer parent.Close()
	reg, err := parent.Read()
	if err != nil || reg.Type != transport.MsgRegister || reg.Sender != "edge-0" {
		t.Fatalf("parent registration = %v, %v", reg, err)
	}
	if err := parent.Write(&transport.Message{
		Type: transport.MsgRegisterAck, Sender: "root",
		Meta: map[string]string{"accepted": "true", transport.MetaCodec: "raw"},
	}); err != nil {
		t.Fatal(err)
	}
	globalBlob, err := fl.EncodeWeights(leafWeights(10))
	if err != nil {
		t.Fatal(err)
	}
	if err := parent.Write(&transport.Message{Type: transport.MsgTask, Sender: "root", Round: 0, Payload: globalBlob}); err != nil {
		t.Fatal(err)
	}
	up, err := parent.Read()
	if err != nil {
		t.Fatal(err)
	}
	if up.Type != transport.MsgUpdate || !hier.IsPartial(up.Payload) {
		t.Fatalf("parent got %v (partial=%v), want partial MsgUpdate", up.Type, hier.IsPartial(up.Payload))
	}
	got, err := hier.DecodePartial(up.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.Updates() != 4 || got.Weight() != 4+8+16 {
		t.Fatalf("partial updates/weight = %d/%d, want 4/28", got.Updates(), got.Weight())
	}
	fails := got.Failures()
	if len(fails) != 1 || fails[0] != "leaf-bad: exec: out of memory" {
		t.Fatalf("failures = %v", fails)
	}
	if got.TierBytes() != int64(len(childBlob)) {
		t.Fatalf("tier bytes = %d, want %d (the stacked child's encoded partial)", got.TierBytes(), len(childBlob))
	}
	if up.NumSamples != 28 {
		t.Fatalf("uplink NumSamples = %d, want 28", up.NumSamples)
	}

	// The merged model must match folding the same updates flat.
	want := hier.NewPartial()
	for i, scale := range []float64{1, 2} {
		if err := want.Fold(hier.Update{ClientName: "leaf-" + strconv.Itoa(i), Weights: leafWeights(scale), NumSamples: 4 * (i + 1), TrainLoss: 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	for i, scale := range []float64{3, 4} {
		if err := want.Fold(hier.Update{ClientName: "deep-" + strconv.Itoa(i), Weights: leafWeights(scale), NumSamples: 8, TrainLoss: 0.25}); err != nil {
			t.Fatal(err)
		}
	}
	wantW, err := want.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	gotW, err := got.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, wantW, gotW, "edge shard")

	finalBlob, err := fl.EncodeWeights(leafWeights(99))
	if err != nil {
		t.Fatal(err)
	}
	if err := parent.Write(&transport.Message{Type: transport.MsgFinish, Sender: "root", Payload: finalBlob}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-edgeDone:
		if err != nil {
			t.Fatalf("edge run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("edge did not finish")
	}
	if edgeRes.Rounds != 1 || edgeRes.TierBytesUp != int64(len(up.Payload)) {
		t.Fatalf("edge result rounds/bytes = %d/%d", edgeRes.Rounds, edgeRes.TierBytesUp)
	}
	if edgeRes.FinalWeights["w"].Data()[0] != 1.5*99 {
		t.Fatalf("edge final weights = %v", edgeRes.FinalWeights["w"].Data())
	}
}

// TestEdgeQuorumFailure: an edge whose whole shard errors must report
// the round to its parent as a failure, not send an empty partial.
func TestEdgeQuorumFailure(t *testing.T) {
	rootNet := transport.NewMemNetwork()
	edgeNet := transport.NewMemNetwork()
	defer rootNet.Close()
	defer edgeNet.Close()
	edge, err := fl.NewEdge(fl.EdgeConfig{
		Name:  "edge-0",
		Token: "t",
		DialParent: func() (transport.MessageConn, error) {
			return rootNet.Dial("edge-0", transport.LinkProfile{}, transport.LinkProfile{})
		},
		Listener:        edgeNet,
		ExpectedClients: 1,
		RegisterTimeout: 5 * time.Second,
		VerifyToken:     func(string, string) bool { return true },
		RoundDeadline:   5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	edgeDone := make(chan error, 1)
	go func() { _, err := edge.Run(); edgeDone <- err }()
	go runLeaf(t, edgeNet, "leaf-0", func(task *transport.Message) *transport.Message {
		return &transport.Message{Type: transport.MsgError, Sender: "leaf-0", Round: task.Round,
			Meta: map[string]string{"error": "boom"}}
	})
	parent, err := rootNet.AcceptConn()
	if err != nil {
		t.Fatal(err)
	}
	defer parent.Close()
	if _, err := parent.Read(); err != nil {
		t.Fatal(err)
	}
	if err := parent.Write(&transport.Message{Type: transport.MsgRegisterAck, Meta: map[string]string{"accepted": "true"}}); err != nil {
		t.Fatal(err)
	}
	blob, _ := fl.EncodeWeights(leafWeights(1))
	if err := parent.Write(&transport.Message{Type: transport.MsgTask, Round: 0, Payload: blob}); err != nil {
		t.Fatal(err)
	}
	up, err := parent.Read()
	if err != nil {
		t.Fatal(err)
	}
	if up.Type != transport.MsgError || up.Meta["error"] == "" {
		t.Fatalf("parent got %v %v, want MsgError with reason", up.Type, up.Meta)
	}
	if err := parent.Write(&transport.Message{Type: transport.MsgFinish}); err != nil {
		t.Fatal(err)
	}
	if err := <-edgeDone; err != nil {
		t.Fatalf("edge run: %v", err)
	}
}
