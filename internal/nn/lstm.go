package nn

import (
	"fmt"

	"clinfl/internal/autograd"
	"clinfl/internal/tensor"
)

// LSTMLayer is a single recurrent layer computing, per timestep,
//
//	i,f,g,o = split(x_t Wx + h_{t-1} Wh + b)
//	c_t = σ(f)⊙c_{t-1} + σ(i)⊙tanh(g)
//	h_t = σ(o)⊙tanh(c_t)
//
// The implementation is batched: x_t is a B×in matrix holding one timestep
// for every sequence in the minibatch.
type LSTMLayer struct {
	In, Hidden int
	Wx, Wh, B  *Param
}

// NewLSTMLayer builds one LSTM layer. The forget-gate bias is initialized
// to 1, the standard trick for stable long-range gradient flow.
func NewLSTMLayer(name string, in, hidden int, rng *tensor.RNG) *LSTMLayer {
	b := tensor.New(1, 4*hidden)
	for j := hidden; j < 2*hidden; j++ { // forget gate slice
		b.Set(0, j, 1)
	}
	return &LSTMLayer{
		In:     in,
		Hidden: hidden,
		Wx:     NewParam(name+".wx", rng.Xavier(in, 4*hidden)),
		Wh:     NewParam(name+".wh", rng.Xavier(hidden, 4*hidden)),
		B:      NewParam(name+".bias", b),
	}
}

// State is the (h, c) pair carried between timesteps.
type State struct {
	H, C *autograd.Node
}

// InitState returns a zero state for a batch of size b.
func (l *LSTMLayer) InitState(ctx *Ctx, b int) State {
	return State{
		H: ctx.Tape.Constant(tensor.New(b, l.Hidden)),
		C: ctx.Tape.Constant(tensor.New(b, l.Hidden)),
	}
}

// Step advances the layer one timestep: x is B×in, s the previous state.
func (l *LSTMLayer) Step(ctx *Ctx, x *autograd.Node, s State) (State, error) {
	tp := ctx.Tape
	zx, err := tp.MatMul(x, ctx.Node(l.Wx), 1)
	if err != nil {
		return State{}, fmt.Errorf("nn: lstm %s: %w", l.Wx.Name, err)
	}
	zh, err := tp.MatMul(s.H, ctx.Node(l.Wh), 1)
	if err != nil {
		return State{}, fmt.Errorf("nn: lstm %s: %w", l.Wh.Name, err)
	}
	z, err := tp.Add(zx, zh)
	if err != nil {
		return State{}, err
	}
	z, err = tp.AddRowVector(z, ctx.Node(l.B))
	if err != nil {
		return State{}, err
	}
	h := l.Hidden
	iGate, err := tp.SliceCols(z, 0, h)
	if err != nil {
		return State{}, err
	}
	fGate, err := tp.SliceCols(z, h, 2*h)
	if err != nil {
		return State{}, err
	}
	gGate, err := tp.SliceCols(z, 2*h, 3*h)
	if err != nil {
		return State{}, err
	}
	oGate, err := tp.SliceCols(z, 3*h, 4*h)
	if err != nil {
		return State{}, err
	}
	i := tp.Sigmoid(iGate)
	f := tp.Sigmoid(fGate)
	g := tp.Tanh(gGate)
	o := tp.Sigmoid(oGate)

	fc, err := tp.Mul(f, s.C)
	if err != nil {
		return State{}, err
	}
	ig, err := tp.Mul(i, g)
	if err != nil {
		return State{}, err
	}
	c, err := tp.Add(fc, ig)
	if err != nil {
		return State{}, err
	}
	hOut, err := tp.Mul(o, tp.Tanh(c))
	if err != nil {
		return State{}, err
	}
	return State{H: hOut, C: c}, nil
}

// Params implements Module.
func (l *LSTMLayer) Params() []*Param { return []*Param{l.Wx, l.Wh, l.B} }

var _ Module = (*LSTMLayer)(nil)

// LSTM stacks several LSTMLayers; the output sequence of layer k feeds
// layer k+1, matching torch.nn.LSTM(num_layers=n).
type LSTM struct {
	Layers []*LSTMLayer
}

// NewLSTM builds an n-layer stack (layer 0 maps in→hidden, deeper layers
// hidden→hidden).
func NewLSTM(name string, n, in, hidden int, rng *tensor.RNG) *LSTM {
	l := &LSTM{}
	for i := 0; i < n; i++ {
		layerIn := hidden
		if i == 0 {
			layerIn = in
		}
		l.Layers = append(l.Layers, NewLSTMLayer(fmt.Sprintf("%s.layer%d", name, i), layerIn, hidden, rng))
	}
	return l
}

// Forward consumes a sequence of B×in timestep nodes and returns the
// top-layer hidden state at every timestep (each B×hidden).
func (l *LSTM) Forward(ctx *Ctx, xs []*autograd.Node) ([]*autograd.Node, error) {
	if len(xs) == 0 {
		return nil, fmt.Errorf("nn: lstm forward on empty sequence")
	}
	batch := xs[0].Value.Rows()
	states := make([]State, len(l.Layers))
	for i, layer := range l.Layers {
		states[i] = layer.InitState(ctx, batch)
	}
	outs := make([]*autograd.Node, len(xs))
	for t, x := range xs {
		cur := x
		for i, layer := range l.Layers {
			var err error
			states[i], err = layer.Step(ctx, cur, states[i])
			if err != nil {
				return nil, fmt.Errorf("nn: lstm layer %d step %d: %w", i, t, err)
			}
			cur = states[i].H
		}
		outs[t] = cur
	}
	return outs, nil
}

// Params implements Module.
func (l *LSTM) Params() []*Param {
	var out []*Param
	for _, layer := range l.Layers {
		out = append(out, layer.Params()...)
	}
	return out
}

var _ Module = (*LSTM)(nil)
