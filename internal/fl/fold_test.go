package fl

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"clinfl/internal/fl/hier"
	"clinfl/internal/model"
	"clinfl/internal/provision"
	"clinfl/internal/sched"
	"clinfl/internal/tensor"
	"clinfl/internal/transport"
)

// acceptRound is a Server's round 0 over global, driven by hand: every
// client is registered and tasked, and reply sends an uplink through the
// Server's reply handling (normalize, handleReply) and the engine's accept
// step (gather.handle), as the gather loop would.
type acceptRound struct {
	t   *testing.T
	srv *Server
	g   *gather
}

func newAcceptRound(t *testing.T, cfg ServerConfig, global map[string]*tensor.Matrix, clients ...string) *acceptRound {
	t.Helper()
	network := transport.NewMemNetwork()
	t.Cleanup(func() { _ = network.Close() })
	cfg.ExpectedClients, cfg.VerifyToken, cfg.Logf, cfg.Listener = len(clients), tokenFor, quietLogf, network
	srv, err := NewServer(cfg, &provision.StartupKit{Role: provision.RoleServer, Name: "server"})
	if err != nil {
		t.Fatal(err)
	}
	e := srv.eng
	e.names = slices.Sorted(maps.Keys(global))
	g := &gather{e: e, global: global, names: e.names, rec: &RoundRecord{}, open: true}
	var ids []int
	for _, name := range clients {
		id := srv.ros.add(name)
		srv.clients = append(srv.clients, &serverClient{name: name, taskedRound: 0})
		s := g.slot(id)
		s.sampled, s.attempt, s.origin = true, 1, name
		g.pending++
		ids = append(ids, id)
	}
	e.sink.open(ids)
	return &acceptRound{t: t, srv: srv, g: g}
}

// reply delivers one client's uplink payload to the accept step.
func (a *acceptRound) reply(client string, samples int, payload []byte) {
	a.t.Helper()
	msg := &transport.Message{Type: transport.MsgUpdate, Sender: client, NumSamples: samples, Payload: payload}
	if err := a.g.handle(a.srv.normalize(inboxMsg{id: a.srv.ros.ids[client], msg: msg}), time.Time{}); err != nil {
		a.t.Fatal(err)
	}
}

// finalize aggregates what the accept step took.
func (a *acceptRound) finalize() map[string]*tensor.Matrix {
	a.t.Helper()
	next, err := a.srv.eng.sink.finalize(0, a.g.global, a.g.late, a.g.rec)
	if err != nil {
		a.t.Fatal(err)
	}
	return next
}

// totalAlloc is the process's cumulative heap allocation.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// TestSparseUplinkClaimAllocatesNothing: a 60-byte top-k uplink claiming
// two 2^13×2^14 params with one kept element each is within every frame
// cap, and decoding it allocates 2 GiB. The server must reject it as the
// sender's failure, on the shapes the check walk read, before any of that
// is allocated.
func TestSparseUplinkClaimAllocatesNothing(t *testing.T) {
	kept := binary.LittleEndian.AppendUint32(nil, 1)          // k
	kept = binary.LittleEndian.AppendUint32(kept, 0)          // index
	kept = binary.LittleEndian.AppendUint32(kept, 0x3f800000) // 1.0
	blob := buildCodecBlob(topKMagic, []fuzzParam{
		{name: "a", rows: 1 << 13, cols: 1 << 14, body: kept},
		{name: "b", rows: 1 << 13, cols: 1 << 14, body: kept},
	})
	if len(blob) != 60 {
		t.Fatalf("payload is %d bytes, want 60", len(blob))
	}
	global := map[string]*tensor.Matrix{"a": tensor.New(2, 3), "b": tensor.New(1, 3)}
	round := newAcceptRound(t, ServerConfig{AllowTopKUplink: true}, global, "evil")
	before := totalAlloc()
	round.reply("evil", 1, blob)
	grew := totalAlloc() - before
	t.Logf("accept step allocated %d bytes", grew)
	if grew >= 1<<20 {
		t.Errorf("accepting a 60-byte uplink allocated %d bytes", grew)
	}
	want := `evil: param "a" shape 8192x16384, want 2x3`
	if f := round.g.rec.Failures; len(f) != 1 || f[0] != want {
		t.Errorf("failures %q, want [%q]", f, want)
	}
	if round.g.got != 0 {
		t.Error("the claim was accepted")
	}
}

// faninWeights returns fanin16's model: the 417k-parameter LSTM that
// fanin16_tls sends (vocab 172, max length 24, 2 classes) as the global,
// and n perturbed copies of it, one per site.
func faninWeights(tb testing.TB, n int) (map[string]*tensor.Matrix, []map[string]*tensor.Matrix) {
	tb.Helper()
	mdl, err := model.New(model.SpecLSTM, 172, 24, 2, 1)
	if err != nil {
		tb.Fatal(err)
	}
	global := make(map[string]*tensor.Matrix)
	for _, p := range mdl.Params() {
		global[p.Name] = p.W.Clone()
	}
	sites := make([]map[string]*tensor.Matrix, n)
	for i := range sites {
		rng := tensor.NewRNG(int64(i) + 1)
		sites[i] = make(map[string]*tensor.Matrix, len(global))
		for _, p := range mdl.Params() { // in order: the noise stream is shared
			w := p.W.Clone()
			if err := w.AddScaledInPlace(1, rng.Normal(w.Rows(), w.Cols(), 0, 0.01)); err != nil {
				tb.Fatal(err)
			}
			sites[i][p.Name] = w
		}
	}
	return global, sites
}

// faninPayloads returns fanin16's round: its global and 16 int8 uplinks
// of the sites' copies.
func faninPayloads(tb testing.TB) (map[string]*tensor.Matrix, [][]byte) {
	tb.Helper()
	global, sites := faninWeights(tb, 16)
	payloads := make([][]byte, len(sites))
	for i, weights := range sites {
		var err error
		if payloads[i], err = (Int8Codec{}).Encode(weights); err != nil {
			tb.Fatal(err)
		}
	}
	return global, payloads
}

// TestWireFoldAllocatesOneModel: accepting and finalizing fanin16's 16
// int8 uplinks allocates the round's sum, not a float64 map per client:
// under two models' worth of float64, where decoding each update used to
// allocate sixteen. The result is FedAvg over the decoded maps, bit for bit.
func TestWireFoldAllocatesOneModel(t *testing.T) {
	global, payloads := faninPayloads(t)
	var modelBytes uint64
	for _, m := range global {
		modelBytes += 8 * uint64(len(m.Data()))
	}
	clients := make([]string, len(payloads))
	for i := range clients {
		clients[i] = fmt.Sprintf("site-%02d", i)
	}
	round := newAcceptRound(t, ServerConfig{}, global, clients...)
	before := totalAlloc()
	for i, blob := range payloads {
		round.reply(clients[i], 10+i, blob)
	}
	next := round.finalize()
	grew := totalAlloc() - before
	if len(round.g.rec.Failures) > 0 || round.g.got != len(payloads) {
		t.Fatalf("accepted %d of %d (failures %q)", round.g.got, len(payloads), round.g.rec.Failures)
	}
	t.Logf("accept and finalize allocated %d bytes; one model is %d", grew, modelBytes)
	if grew >= 2*modelBytes {
		t.Errorf("accept and finalize allocated %d bytes, want under %d (two models)", grew, 2*modelBytes)
	}

	decoded := make([]*ClientUpdate, len(payloads))
	for i, blob := range payloads {
		weights, err := DecodeWeights(blob)
		if err != nil {
			t.Fatal(err)
		}
		decoded[i] = &ClientUpdate{ClientName: clients[i], Weights: weights, NumSamples: 10 + i}
	}
	want, err := FedAvg{}.Aggregate(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if diff := firstBitDiff(next, want); diff != "" {
		t.Errorf("wire fold differs from FedAvg over decoded maps: %s", diff)
	}
}

// fixedExecutor returns the same weights every round, so a round costs
// only the wire path.
type fixedExecutor struct {
	name    string
	weights map[string]*tensor.Matrix
	samples int
}

func (e *fixedExecutor) Name() string    { return e.name }
func (e *fixedExecutor) NumSamples() int { return e.samples }
func (e *fixedExecutor) ExecuteRound(round int, _ map[string]*tensor.Matrix) (*ClientUpdate, error) {
	return &ClientUpdate{ClientName: e.name, Round: round, Weights: e.weights, NumSamples: e.samples, TrainLoss: 0.5}, nil
}

// TestFaninRoundRecyclesWireBuffers runs an int8 MemNetwork federation of 8
// sites on fanin16's model. Once warm, a round — the task encode, its 8
// frames and decodes, 8 uplink encodes, their frames and the fold —
// allocates under one float64 model (the round's sum) plus two payloads:
// every frame and encode buffer is a recycled one. The final model is
// FedAvg over the decoded uplinks, bit for bit, so a payload read after
// its frame's release (poisoned under -tags arenapoison) fails here.
func TestFaninRoundRecyclesWireBuffers(t *testing.T) {
	const sites, rounds, warm = 8, 12, 4
	global, weights := faninWeights(t, sites)
	network := transport.NewMemNetwork()
	defer network.Close()
	var allocs []uint64 // after each round
	srv, err := NewServer(ServerConfig{
		ExpectedClients: sites, Rounds: rounds, MinClients: sites, RegisterTimeout: 10 * time.Second,
		Codec: "int8", VerifyToken: tokenFor, Logf: quietLogf, Listener: network,
		Validate: func(map[string]*tensor.Matrix) (float64, error) {
			allocs = append(allocs, totalAlloc())
			return 0, nil
		},
	}, &provision.StartupKit{Role: provision.RoleServer, Name: "server"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var wg sync.WaitGroup
	decoded := make([]*ClientUpdate, sites)
	for i := range sites {
		exec := &fixedExecutor{name: fmt.Sprintf("site-%d", i), weights: weights[i], samples: 10 + i}
		cl, err := NewClient(ClientConfig{Codec: "int8", Logf: quietLogf, Dialer: memDialer(network, exec.name)},
			&provision.StartupKit{Role: provision.RoleClient, Name: exec.name, Token: "tok-" + exec.name}, exec)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := cl.Run(); err != nil {
				t.Errorf("client %s: %v", exec.name, err)
			}
		}()
		seen, err := Int8Codec{}.Decode(mustEncode(t, Int8Codec{}, weights[i]))
		if err != nil {
			t.Fatal(err)
		}
		decoded[i] = &ClientUpdate{ClientName: exec.name, Weights: seen, NumSamples: exec.samples}
	}
	res, err := srv.Run(global)
	srv.Close()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}

	want, err := FedAvg{}.Aggregate(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if diff := firstBitDiff(res.FinalWeights, want); diff != "" {
		t.Errorf("final model differs from FedAvg over the decoded uplinks: %s", diff)
	}
	var modelBytes uint64
	for _, m := range global {
		modelBytes += 8 * uint64(len(m.Data()))
	}
	payloadBytes := uint64(len(mustEncode(t, Int8Codec{}, global)))
	perRound := (allocs[rounds-1] - allocs[warm-1]) / (rounds - warm)
	bound := modelBytes + 2*payloadBytes
	t.Logf("a warm round allocated %d bytes; one model is %d, one payload %d", perRound, modelBytes, payloadBytes)
	switch {
	case raceEnabled:
		t.Log("allocation bound not checked: the race detector's pool drops recycled frames")
	case perRound >= bound:
		t.Errorf("a warm round allocated %d bytes, want under %d (one model and two payloads)", perRound, bound)
	}
}

// mustEncode is codec.Encode that fails the test on an error.
func mustEncode(t *testing.T, codec WeightCodec, weights map[string]*tensor.Matrix) []byte {
	t.Helper()
	blob, err := codec.Encode(weights)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// firstBitDiff describes the first element where two models' bits differ
// ("" when none does).
func firstBitDiff(got, want map[string]*tensor.Matrix) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d params, want %d", len(got), len(want))
	}
	for _, name := range slices.Sorted(maps.Keys(want)) {
		g, w := got[name], want[name]
		if g == nil || g.Rows() != w.Rows() || g.Cols() != w.Cols() {
			return fmt.Sprintf("param %q missing or misshapen", name)
		}
		for i, v := range w.Data() {
			if math.Float64bits(g.Data()[i]) != math.Float64bits(v) {
				return fmt.Sprintf("%s[%d] = %v, want %v", name, i, g.Data()[i], v)
			}
		}
	}
	return ""
}

// wireUpdate is an update as the Server's reply handling builds it.
func wireUpdate(name string, samples int, blob []byte) (*ClientUpdate, error) {
	params, err := checkPayload(blob)
	if err != nil {
		return nil, err
	}
	return &ClientUpdate{ClientName: name, NumSamples: samples, payload: blob, params: params}, nil
}

// TestFrameRequiresCanonicalOrder: the encoder writes names and top-k
// indices strictly ascending, and a payload that does not is rejected, so
// no name and no element is ever set twice.
func TestFrameRequiresCanonicalOrder(t *testing.T) {
	one := func(v float32) []byte { return binary.LittleEndian.AppendUint32(nil, math.Float32bits(v)) }
	pair := func(idx uint32, v float32) []byte {
		return append(binary.LittleEndian.AppendUint32(nil, idx), one(v)...)
	}
	k2 := binary.LittleEndian.AppendUint32(nil, 2)
	for _, tc := range []struct {
		blob []byte
		want string
	}{
		{buildCodecBlob(f32Magic, []fuzzParam{{name: "b", rows: 1, cols: 1, body: one(1)}, {name: "a", rows: 1, cols: 1, body: one(2)}}),
			`param "a" out of name order`},
		{buildCodecBlob(topKMagic, []fuzzParam{{name: "w", rows: 1, cols: 4, body: append(append(k2, pair(2, 1)...), pair(1, 2)...)}}),
			"index 1 not ascending"},
		{buildCodecBlob(topKMagic, []fuzzParam{{name: "w", rows: 1, cols: 4, body: append(append(k2, pair(1, float32(math.NaN()))...), pair(1, 2)...)}}),
			"index 1 not ascending"},
	} {
		if _, err := DecodeWeights(tc.blob); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("DecodeWeights: %v, want %q", err, tc.want)
		}
		if _, err := checkPayload(tc.blob); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("checkPayload: %v, want %q", err, tc.want)
		}
	}
}

// foldWeights is one update of a model whose params meet every edge of the
// fold's blocks: an n×1 and a 1×n param each longer than one block
// (foldBlock elements), a param of odd element count whose rows split into
// three blocks, and a 1×1 param. Magnitudes span 2^-3 to 2^3, so sums in
// another order round differently.
func foldWeights(seed int64) map[string]*tensor.Matrix {
	rng := tensor.NewRNG(seed)
	weights := make(map[string]*tensor.Matrix)
	for _, p := range []struct {
		name       string
		rows, cols int
	}{{"a.col", 2*foldBlock + 3616, 1}, {"b.row", 1, foldBlock + 808}, {"c.mat", 301, 67}, {"d.one", 1, 1}} {
		m := rng.Normal(p.rows, p.cols, 0, 1)
		for i := range m.Data() {
			m.Data()[i] = math.Ldexp(m.Data()[i], i%7-3)
		}
		weights[p.name] = m
	}
	return weights
}

// sequentialFold is the fold FedAvg must equal bit for bit: each update
// decoded in full, then added with AddScaledInPlace, one update after
// another in the order given.
func sequentialFold(t *testing.T, updates []*ClientUpdate) map[string]*tensor.Matrix {
	t.Helper()
	var total float64
	for _, u := range updates {
		total += float64(u.NumSamples)
	}
	sum := make(map[string]*tensor.Matrix)
	for _, u := range updates {
		weights := u.Weights
		if weights == nil {
			var err error
			if weights, err = DecodeWeights(u.payload); err != nil {
				t.Fatal(err)
			}
		}
		for name, m := range weights {
			if sum[name] == nil {
				sum[name] = tensor.New(m.Rows(), m.Cols())
			}
			if err := sum[name].AddScaledInPlace(float64(u.NumSamples)/total, m); err != nil {
				t.Fatal(err)
			}
		}
	}
	return sum
}

// TestFoldSameBitsAtEveryPoolWidth: FedAvg folds block by block across
// the updates, on the shared pool, and must give the bits of the
// sequential fold at every pool width, for a round of raw, f32, int8 and
// top-k uplinks and for a round of in-process maps. The top-k uplink keeps
// elements on both sides of every block edge.
func TestFoldSameBitsAtEveryPoolWidth(t *testing.T) {
	codecs := []WeightCodec{RawCodec{}, Float32Codec{}, Int8Codec{}, TopKCodec{Fraction: 0.3}, Int8Codec{}, Float32Codec{}}
	var wire, inProcess []*ClientUpdate
	for i, codec := range codecs {
		name, samples := fmt.Sprintf("site-%d", i), 7+5*i
		weights := foldWeights(int64(i) + 1)
		blob, err := codec.Encode(weights)
		if err != nil {
			t.Fatal(err)
		}
		u, err := wireUpdate(name, samples, blob)
		if err != nil {
			t.Fatal(err)
		}
		wire = append(wire, u)
		inProcess = append(inProcess, &ClientUpdate{ClientName: name, Weights: weights, NumSamples: samples})
	}
	for _, round := range []struct {
		name    string
		updates []*ClientUpdate
	}{{"wire", wire}, {"in-process", inProcess}} {
		want := sequentialFold(t, round.updates)
		for _, width := range []int{1, 2, 4} {
			pool := sched.New(width)
			prev := sched.SetDefault(pool)
			got, err := FedAvg{}.Aggregate(round.updates)
			sched.SetDefault(prev)
			pool.Close()
			if err != nil {
				t.Fatal(err)
			}
			if diff := firstBitDiff(got, want); diff != "" {
				t.Errorf("%s round at pool width %d: %s", round.name, width, diff)
			}
		}
	}
}

// TestFoldRejectsFirstBadUpdate: every update is checked before any
// element is added, and the error names the first bad update in the order
// given, in the words the update-by-update fold used.
func TestFoldRejectsFirstBadUpdate(t *testing.T) {
	model := func(wRows, wCols int, extra ...string) map[string]*tensor.Matrix {
		m := map[string]*tensor.Matrix{"b": tensor.New(1, 3), "w": tensor.New(wRows, wCols)}
		for _, name := range extra {
			m[name] = tensor.New(1, 1)
		}
		return m
	}
	update := func(name string, weights map[string]*tensor.Matrix) *ClientUpdate {
		return &ClientUpdate{ClientName: name, Weights: weights, NumSamples: 1}
	}
	wire := func(name string, weights map[string]*tensor.Matrix) *ClientUpdate {
		blob, err := Int8Codec{}.Encode(weights)
		if err != nil {
			t.Fatal(err)
		}
		u, err := wireUpdate(name, 1, blob)
		if err != nil {
			t.Fatal(err)
		}
		return u
	}
	missing := model(2, 3)
	delete(missing, "b")
	missing["a"] = tensor.New(1, 3)
	for _, tc := range []struct {
		updates []*ClientUpdate
		want    string
	}{
		{[]*ClientUpdate{update("a", model(2, 3)), update("b", model(2, 3, "x")), update("c", missing)},
			`fl: client "b" sent 3 params, want 2`},
		{[]*ClientUpdate{update("a", model(2, 3)), update("b", missing), update("c", model(3, 2))},
			`fl: client "b" missing param "b"`},
		{[]*ClientUpdate{update("a", model(2, 3)), update("b", model(3, 2)), update("c", model(2, 3, "x"))},
			`fl: aggregate "w" from "b": tensor: shape mismatch: AddScaledInPlace 2x3 += 3x2`},
		{[]*ClientUpdate{wire("a", model(2, 3)), wire("b", model(3, 2)), wire("c", missing)},
			`fl: aggregate from "b": param "w" shape 3x2 matches no accumulator`},
		{[]*ClientUpdate{wire("a", model(2, 3)), update("b", model(2, 3)), wire("c", missing)},
			`fl: aggregate from "c": param "a" shape 1x3 matches no accumulator`},
	} {
		got, err := FedAvg{}.Aggregate(tc.updates)
		if err == nil || err.Error() != tc.want {
			t.Errorf("got %v, %v; want error %q", got, err, tc.want)
		}
	}
}

// foldBench is one aggregation input set for the fold benchmarks.
type foldBench struct {
	name    string
	updates []*ClientUpdate
}

// foldBenches builds the workload shapes the fold is measured on:
//   - tier30k: one tier30k_sim edge shard, 469 updates (30 000 clients over
//     64 shards) of the simulator's linear model, w 1x8 plus b 1x1;
//   - fanin16: 16 int8-decoded updates of the 417k-parameter LSTM that
//     fanin16_tls sends (vocab 172, max length 24, 2 classes);
//   - fanin16_wire: the same 16 updates wire-backed, as the Server holds
//     them: FedAvg folds each payload, the flat side PartialFold is
//     measured against.
func foldBenches(b *testing.B) []foldBench {
	b.Helper()
	r := rand.New(rand.NewSource(5))
	tier := make([]*ClientUpdate, 469)
	for i := range tier {
		w, bias := tensor.New(1, 8), tensor.New(1, 1)
		for j := range w.Data() {
			w.Data()[j] = r.NormFloat64()
		}
		bias.Data()[0] = r.NormFloat64()
		tier[i] = &ClientUpdate{ClientName: fmt.Sprintf("c%05d", i),
			Weights: map[string]*tensor.Matrix{"w": w, "b": bias}, NumSamples: 20 + i%40, TrainLoss: 0.1}
	}
	_, payloads := faninPayloads(b)
	fanin := make([]*ClientUpdate, len(payloads))
	wire := make([]*ClientUpdate, len(payloads))
	for i, blob := range payloads {
		weights, err := DecodeWeights(blob)
		if err != nil {
			b.Fatal(err)
		}
		name := fmt.Sprintf("site-%02d", i)
		fanin[i] = &ClientUpdate{ClientName: name, Weights: weights, NumSamples: 10 + i, TrainLoss: 0.5}
		if wire[i], err = wireUpdate(name, 10+i, blob); err != nil {
			b.Fatal(err)
		}
	}
	return []foldBench{{"tier30k", tier}, {"fanin16", fanin}, {"fanin16_wire", wire}}
}

// BenchmarkPartialFold folds every update of a shape into a fresh partial
// and finalizes it: the streaming FedAvg that BenchmarkWeightedAverage is
// the batch twin of, on the same inputs. A partial folds weight maps, so
// it has no wire case yet.
func BenchmarkPartialFold(b *testing.B) {
	for _, fb := range foldBenches(b) {
		if fb.updates[0].wire() {
			continue
		}
		b.Run(fb.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				p := hier.NewPartial()
				for _, u := range fb.updates {
					if err := p.Fold(hier.Update{ClientName: u.ClientName, Weights: u.Weights, NumSamples: u.NumSamples, TrainLoss: u.TrainLoss}); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := p.Finalize(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWeightedAverage is flat FedAvg (FedAvg, the batch
// weightedAverage) over the inputs BenchmarkPartialFold folds, plus the
// wire-backed fanin16 round.
func BenchmarkWeightedAverage(b *testing.B) {
	for _, fb := range foldBenches(b) {
		b.Run(fb.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := (FedAvg{}).Aggregate(fb.updates); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
