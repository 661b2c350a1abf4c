package fl

import (
	"bytes"
	"errors"
	"maps"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"clinfl/internal/provision"
	"clinfl/internal/tensor"
	"clinfl/internal/transport"
)

// TestEncodeCheckedNamesFirstBadParam: the encode pass names the first
// param in name order holding a NaN or ±Inf, whatever row it sits in, and
// writes the same bytes as Encode, also into a reused buffer that holds
// another payload.
func TestEncodeCheckedNamesFirstBadParam(t *testing.T) {
	weights := codecTestWeights(3)
	weights["out.w"].Set(31, 1, math.Inf(-1)) // last row of the last param
	weights["enc.w"].Set(9, 4, math.NaN())    // a middle row
	for _, codec := range []WeightCodec{RawCodec{}, Float32Codec{}, Int8Codec{}, TopKCodec{Fraction: 0.25}} {
		want, err := codec.Encode(weights)
		if err != nil {
			t.Fatal(err)
		}
		for _, dst := range [][]byte{nil, bytes.Repeat([]byte{0xAB}, 2*len(want))} {
			blob, bad, err := encodeChecked(codec, dst, weights)
			if err != nil {
				t.Fatal(err)
			}
			if bad != "enc.w" {
				t.Errorf("%s: first bad param %q, want enc.w", codec.Name(), bad)
			}
			if !slices.Equal(blob, want) {
				t.Errorf("%s: checked encode into a %d-byte buffer wrote other bytes than Encode", codec.Name(), len(dst))
			}
			if dst != nil && &blob[0] != &dst[0] {
				t.Errorf("%s: checked encode did not reuse a buffer that holds the payload", codec.Name())
			}
		}
	}
	if _, bad, _ := encodeChecked(Int8Codec{}, nil, codecTestWeights(3)); bad != "" {
		t.Errorf("finite weights reported bad param %q", bad)
	}
}

// TestCheckWalkBoundsMagnitude: the accept step refuses a value of
// magnitude 2^980 or more from a raw payload and from a decoded map alike,
// and a NaN outranks it. Values just below the bound pass.
func TestCheckWalkBoundsMagnitude(t *testing.T) {
	below := math.Nextafter(maxMagnitude, 0)
	for _, tc := range []struct {
		name   string
		values []float64
		want   error
	}{
		{"below", []float64{below, -below, 1}, nil},
		{"at", []float64{1, -maxMagnitude, 1}, errTooLarge},
		{"max/2", []float64{math.MaxFloat64 / 2, 1, 1}, errTooLarge},
		{"nan after large", []float64{maxMagnitude, math.NaN(), 1}, errNonFinite},
		{"inf", []float64{math.Inf(1), 1, 1}, errNonFinite},
	} {
		w := map[string]*tensor.Matrix{"p": tensor.MustFromSlice(1, 3, tc.values)}
		blob, err := EncodeWeights(w)
		if err != nil {
			t.Fatal(err)
		}
		params, err := checkPayload(blob)
		if err != nil {
			t.Fatal(err)
		}
		if !errors.Is(params[0].bad, tc.want) {
			t.Errorf("%s: raw check walk %v, want %v", tc.name, params[0].bad, tc.want)
		}
		if got := checkValues(w["p"].Data()); !errors.Is(got, tc.want) {
			t.Errorf("%s: map check %v, want %v", tc.name, got, tc.want)
		}
	}
	// An f32 or int8 value is below 2^128 by construction, so their walks
	// never report the magnitude.
	huge := map[string]*tensor.Matrix{"p": tensor.MustFromSlice(1, 2, []float64{math.MaxFloat32, -1})}
	for _, codec := range []WeightCodec{Float32Codec{}, Int8Codec{}} {
		blob, _ := codec.Encode(huge)
		if params, err := checkPayload(blob); err != nil || params[0].bad != nil {
			t.Errorf("%s: float32 max checked as %v, %v", codec.Name(), params, err)
		}
	}
}

// decodeAfter decodes next into the matrices prev decoded to, the way a
// site decodes each task into the last one's.
func decodeAfter(t *testing.T, prev, next []byte) (before, after map[string]*tensor.Matrix) {
	t.Helper()
	before, err := decodeInto(prev, map[string]*tensor.Matrix{})
	if err != nil {
		t.Fatal(err)
	}
	// Copy the matrix pointers: the decode below rewrites their contents.
	before = maps.Clone(before)
	after, err = decodeInto(next, before)
	if err != nil {
		t.Fatal(err)
	}
	want, err := DecodeWeights(next)
	if err != nil {
		t.Fatal(err)
	}
	if diff := firstBitDiff(after, want); diff != "" {
		t.Errorf("decode into the last task's matrices differs from a fresh decode: %s", diff)
	}
	return before, after
}

// TestTaskDecodeFollowsSchema: a task whose schema changed since the last
// one (a param added, one removed, one reshaped) decodes to exactly the new
// schema, reusing only the matrices whose name and shape still match.
func TestTaskDecodeFollowsSchema(t *testing.T) {
	old := codecTestWeights(1)
	next := codecTestWeights(2)
	delete(next, "enc.b")                      // removed
	next["out.w"] = tensor.New(2, 32)          // reshaped
	next["out.b"] = tensor.New(1, 2)           // added
	next["out.w"].Set(1, 5, 0.75)              // something to decode
	oldBlob, _ := Int8Codec{}.Encode(old)      // the task before
	nextBlob, _ := Float32Codec{}.Encode(next) // and a codec change too
	before, after := decodeAfter(t, oldBlob, nextBlob)
	if got := slices.Sorted(maps.Keys(after)); !slices.Equal(got, []string{"enc.w", "out.b", "out.w"}) {
		t.Fatalf("decoded params %v, want the new schema", got)
	}
	if after["enc.w"] != before["enc.w"] {
		t.Error("enc.w kept its name and shape but was not decoded in place")
	}
	if after["out.w"] == before["out.w"] {
		t.Error("reshaped out.w was decoded into its old matrix")
	}
}

// TestTopKTaskAfterDenseZeroesUnkept: a sparse task decoded into a dense
// task's matrices reads 0 for every element it did not keep.
func TestTopKTaskAfterDenseZeroesUnkept(t *testing.T) {
	dense, _ := RawCodec{}.Encode(codecTestWeights(1))
	sparse, _ := TopKCodec{Fraction: 0.1}.Encode(codecTestWeights(2))
	before, after := decodeAfter(t, dense, sparse)
	for name, m := range after {
		if m != before[name] {
			t.Errorf("%s was not decoded in place", name)
		}
		zeros := 0
		for _, v := range m.Data() {
			if v == 0 {
				zeros++
			}
		}
		if zeros < len(m.Data())*8/10 {
			t.Errorf("%s: %d of %d elements zero, want the 90%% top-k dropped", name, zeros, len(m.Data()))
		}
	}
}

// ptrExecutor records the matrices of every task it is handed, by pointer
// only: it reads none of them after ExecuteRound returns.
type ptrExecutor struct {
	fakeExecutor
	mu   sync.Mutex
	seen [][]*tensor.Matrix
}

func (e *ptrExecutor) ExecuteRound(round int, global map[string]*tensor.Matrix) (*ClientUpdate, error) {
	ptrs := make([]*tensor.Matrix, 0, len(global))
	for _, name := range slices.Sorted(maps.Keys(global)) {
		ptrs = append(ptrs, global[name])
	}
	e.mu.Lock()
	e.seen = append(e.seen, ptrs)
	e.mu.Unlock()
	return e.fakeExecutor.ExecuteRound(round, global)
}

// TestClientRunFinalDoesNotAliasTasks: a site decodes every task after the
// first into the first task's matrices, and the final model Run returns is
// its own, holding the server's final weights.
func TestClientRunFinalDoesNotAliasTasks(t *testing.T) {
	network := transport.NewMemNetwork()
	defer network.Close()
	srv, err := NewServer(ServerConfig{
		ExpectedClients: 2, Rounds: 3, MinClients: 2, RegisterTimeout: 10 * time.Second,
		VerifyToken: tokenFor, Logf: quietLogf, Listener: network,
	}, &provision.StartupKit{Role: provision.RoleServer, Name: "server"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	execs := []*ptrExecutor{
		{fakeExecutor: fakeExecutor{name: "a", samples: 1, value: 1}},
		{fakeExecutor: fakeExecutor{name: "b", samples: 3, value: 2}},
	}
	finals := make([]map[string]*tensor.Matrix, len(execs))
	var wg sync.WaitGroup
	for i, exec := range execs {
		cl, err := NewClient(ClientConfig{Logf: quietLogf, Dialer: memDialer(network, exec.name)},
			&provision.StartupKit{Role: provision.RoleClient, Name: exec.name, Token: "tok-" + exec.name}, exec)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			final, err := cl.Run()
			if err != nil {
				t.Errorf("client %s: %v", exec.name, err)
			}
			finals[i] = final
		}()
	}
	res, err := srv.Run(initialWeights())
	srv.Close()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for i, exec := range execs {
		if len(exec.seen) != 3 {
			t.Fatalf("%s trained %d rounds, want 3", exec.name, len(exec.seen))
		}
		for r, ptrs := range exec.seen[1:] {
			if !slices.Equal(ptrs, exec.seen[0]) {
				t.Errorf("%s round %d: task not decoded into the first task's matrices", exec.name, r+1)
			}
		}
		for name, m := range finals[i] {
			if slices.Contains(exec.seen[0], m) {
				t.Errorf("%s: final %s aliases a task matrix", exec.name, name)
			}
		}
		if diff := firstBitDiff(finals[i], res.FinalWeights); diff != "" {
			t.Errorf("%s: final model differs from the server's: %s", exec.name, diff)
		}
	}
}

// TestNewClientRefusalNamesCodec: an uplink codec the client cannot
// resolve is refused by field and direction, with the uplink list.
func TestNewClientRefusalNamesCodec(t *testing.T) {
	for _, name := range []string{"bogus", "topk:2"} {
		_, err := NewClient(ClientConfig{Codec: name}, &provision.StartupKit{Role: provision.RoleClient, Name: "c1"},
			&fixedExecutor{name: "c1"})
		want := `fl: Codec "` + name + `" is not an uplink codec: raw, f32, int8 or topk[:fraction], a fraction in (0, 1]`
		if err == nil || err.Error() != want {
			t.Errorf("Codec %q refused with %v, want %s", name, err, want)
		}
	}
}
