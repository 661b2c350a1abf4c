package autograd

import (
	"fmt"

	"clinfl/internal/tensor"
)

// backward applies one node's vector-Jacobian product, accumulating into
// its parents' gradient buffers. Every rule works in place: matmul VJPs use
// the tensor kernels' accumulate modes to add straight into existing
// gradients, and elementwise rules loop over the parent buffer directly, so
// the backward pass allocates no scratch beyond the (arena-recycled)
// gradient buffers themselves and the single pre-activation buffer of the
// fused LinearGELU.
//
// Dispatching on an opcode instead of a stored closure is what lets Reset
// recycle Node objects: a node carries only plain data (parents, aux
// fields), never a heap-allocated func value.
func (n *Node) backward() {
	g := n.Grad
	switch n.op {
	case opAdd:
		n.a.accumulate(g)
		n.b.accumulate(g)

	case opSub:
		n.a.accumulate(g)
		if n.b.requiresGrad {
			mustAcc(n.b.ensureGrad().AddScaledInPlace(-1, g))
		}

	case opMul:
		if n.a.requiresGrad {
			accMulInto(n.a.ensureGrad(), g, n.b.Value)
		}
		if n.b.requiresGrad {
			accMulInto(n.b.ensureGrad(), g, n.a.Value)
		}

	case opScale:
		if n.a.requiresGrad {
			mustAcc(n.a.ensureGrad().AddScaledInPlace(n.alpha, g))
		}

	case opMatMul:
		// Per block g: d a_g = g_g × b_gᵀ, d b_g = a_gᵀ × g_g.
		if n.a.requiresGrad {
			mustAcc(tensor.MatMulTransB(n.a.ensureGrad(), g, n.b.Value, n.iaux, 1, true))
		}
		if n.b.requiresGrad {
			mustAcc(tensor.MatMulTransAAcc(n.b.ensureGrad(), n.a.Value, g, n.iaux, 1))
		}

	case opMatMulTransB:
		// Per block g: d a_g = alpha·g_g × b_g, d b_g = alpha·g_gᵀ × a_g.
		if n.a.requiresGrad {
			mustAcc(tensor.MatMul(n.a.ensureGrad(), g, n.b.Value, n.iaux, n.alpha, true))
		}
		if n.b.requiresGrad {
			mustAcc(tensor.MatMulTransAAcc(n.b.ensureGrad(), g, n.a.Value, n.iaux, n.alpha))
		}

	case opAffine:
		n.backwardAffine(g)

	case opLinearGELU:
		// dh = upstream ⊙ GELU'(pre-activation), then the affine VJPs on dh.
		// Every element of the scratch is written before use.
		h := n.m1
		dh := n.tape.newMatrixUninit(h.Rows(), h.Cols())
		dd, hd, ud := dh.Data(), h.Data(), g.Data()
		for i, x := range hd {
			dd[i] = ud[i] * geluDeriv(x)
		}
		n.backwardAffine(dh)

	case opAddRowVector:
		n.a.accumulate(g)
		if n.b.requiresGrad {
			accColSums(n.b.ensureGrad(), g)
		}

	case opTanh:
		if n.a.requiresGrad {
			dst, vd, ud := n.a.ensureGrad().Data(), n.Value.Data(), g.Data()
			for i, v := range vd {
				dst[i] += ud[i] * (1 - v*v)
			}
		}

	case opSigmoid:
		if n.a.requiresGrad {
			dst, vd, ud := n.a.ensureGrad().Data(), n.Value.Data(), g.Data()
			for i, v := range vd {
				dst[i] += ud[i] * v * (1 - v)
			}
		}

	case opGELU:
		if n.a.requiresGrad {
			dst, xd, ud := n.a.ensureGrad().Data(), n.a.Value.Data(), g.Data()
			for i, x := range xd {
				dst[i] += ud[i] * geluDeriv(x)
			}
		}

	case opSoftmaxRows:
		// In-place softmax VJP: needs only the per-row dot Σ u⊙s, so the
		// gradient adds directly into the parent buffer with no scratch.
		// Masked columns hold s=0 and route nothing.
		if n.a.requiresGrad {
			s := n.Value
			ga := n.a.ensureGrad()
			for i := 0; i < s.Rows(); i++ {
				srow, urow, grow := s.Row(i), g.Row(i), ga.Row(i)
				var dot float64
				for j := range srow {
					dot += urow[j] * srow[j]
				}
				for j := range srow {
					grow[j] += srow[j] * (urow[j] - dot)
				}
			}
		}

	case opLayerNorm:
		n.backwardLayerNorm(g)

	case opEmbedding:
		gt := n.a.ensureGrad()
		for i, id := range n.ints {
			dst, src := gt.Row(id), g.Row(i)
			for j, u := range src {
				dst[j] += u
			}
		}

	case opConcatCols:
		ca := n.a.Value.Cols()
		if n.a.requiresGrad {
			ga := n.a.ensureGrad()
			for i := 0; i < ga.Rows(); i++ {
				dst, src := ga.Row(i), g.Row(i)[:ca]
				for j, u := range src {
					dst[j] += u
				}
			}
		}
		if n.b.requiresGrad {
			gb := n.b.ensureGrad()
			for i := 0; i < gb.Rows(); i++ {
				dst, src := gb.Row(i), g.Row(i)[ca:]
				for j, u := range src {
					dst[j] += u
				}
			}
		}

	case opConcatRows:
		off := 0
		for _, p := range n.parents {
			r := p.Value.Rows()
			if p.requiresGrad {
				gp := p.ensureGrad()
				for i := 0; i < r; i++ {
					dst, src := gp.Row(i), g.Row(off+i)
					for j, u := range src {
						dst[j] += u
					}
				}
			}
			off += r
		}

	case opSliceCols:
		if n.a.requiresGrad {
			ga := n.a.ensureGrad()
			lo := n.iaux
			for i := 0; i < n.Value.Rows(); i++ {
				dst, src := ga.Row(i)[lo:n.jaux], g.Row(i)
				for j, u := range src {
					dst[j] += u
				}
			}
		}

	case opSliceRows:
		if n.a.requiresGrad {
			ga := n.a.ensureGrad()
			for i := n.iaux; i < n.jaux; i++ {
				dst, src := ga.Row(i), g.Row(i-n.iaux)
				for j, u := range src {
					dst[j] += u
				}
			}
		}

	case opMean:
		if size := n.a.Value.Size(); size > 0 && n.a.requiresGrad {
			dst := n.a.ensureGrad().Data()
			u := g.At(0, 0) / float64(size)
			for i := range dst {
				dst[i] += u
			}
		}

	case opSumScalars:
		for _, p := range n.parents {
			p.accumulate(g)
		}

	case opDropout:
		if n.a.requiresGrad {
			accMulInto(n.a.ensureGrad(), g, n.m1)
		}

	case opCrossEntropy:
		counted := n.iaux
		if counted == 0 || !n.a.requiresGrad {
			return
		}
		scale := g.At(0, 0) / float64(counted)
		probs := n.m1
		gl := n.a.ensureGrad()
		for i, tgt := range n.ints {
			if tgt == IgnoreIndex {
				continue
			}
			grow, prow := gl.Row(i), probs.Row(i)
			for j, p := range prow {
				grow[j] += p * scale
			}
			grow[tgt] -= scale
		}

	case opGatherRows:
		ga := n.a.ensureGrad()
		for i, r := range n.ints {
			dst, src := ga.Row(r), g.Row(i)
			for j, u := range src {
				dst[j] += u
			}
		}

	default:
		panic(fmt.Sprintf("autograd: no backward rule for opcode %d", n.op))
	}
}

// backwardAffine applies the x×W + bias VJPs for upstream gradient u
// (parents a=x, b=W, c=bias). Shared by Affine and LinearGELU.
func (n *Node) backwardAffine(u *tensor.Matrix) {
	if n.a.requiresGrad {
		// d x = u × Wᵀ
		mustAcc(tensor.MatMulTransB(n.a.ensureGrad(), u, n.b.Value, 1, 1, true))
	}
	if n.b.requiresGrad {
		// d W = xᵀ × u
		mustAcc(tensor.MatMulTransAAcc(n.b.ensureGrad(), n.a.Value, u, 1, 1))
	}
	if n.c.requiresGrad {
		accColSums(n.c.ensureGrad(), u)
	}
}

// backwardLayerNorm applies the layer-norm VJPs (parents a=x, b=gain,
// c=bias; m1=xhat, m2=1×rows inverse std).
func (n *Node) backwardLayerNorm(g *tensor.Matrix) {
	xhat := n.m1
	rows, cols := xhat.Rows(), xhat.Cols()
	if n.c.requiresGrad {
		accColSums(n.c.ensureGrad(), g)
	}
	if n.b.requiresGrad {
		gg := n.b.ensureGrad().Data()
		for i := 0; i < rows; i++ {
			urow, hrow := g.Row(i), xhat.Row(i)
			for j, u := range urow {
				gg[j] += u * hrow[j]
			}
		}
	}
	if !n.a.requiresGrad {
		return
	}
	gx := n.a.ensureGrad()
	gd := n.b.Value.Data()
	isd := n.m2.Data()
	for i := 0; i < rows; i++ {
		ur, hr, gr := g.Row(i), xhat.Row(i), gx.Row(i)
		// gy = upstream ⊙ gain; dx = (gy - mean(gy) - xhat*mean(gy⊙xhat)) * invStd
		var m1, m2 float64
		for j := range ur {
			gy := ur[j] * gd[j]
			m1 += gy
			m2 += gy * hr[j]
		}
		m1 /= float64(cols)
		m2 /= float64(cols)
		for j := range ur {
			gy := ur[j] * gd[j]
			gr[j] += (gy - m1 - hr[j]*m2) * isd[i]
		}
	}
}

// accMulInto accumulates dst += a⊙b elementwise (all same shape).
func accMulInto(dst, a, b *tensor.Matrix) {
	dd, ad, bd := dst.Data(), a.Data(), b.Data()
	for i, av := range ad {
		dd[i] += av * bd[i]
	}
}

// accColSums accumulates the column sums of g into the 1×C buffer dst.
func accColSums(dst, g *tensor.Matrix) {
	dd := dst.Data()
	for i := 0; i < g.Rows(); i++ {
		for j, u := range g.Row(i) {
			dd[j] += u
		}
	}
}

// mustAcc wraps tensor shape errors that indicate internal bugs: shapes are
// constructed by the ops themselves, so a mismatch is a programming error
// inside this package, not a user error.
func mustAcc(err error) {
	if err != nil {
		panic(fmt.Sprintf("autograd: internal shape bug: %v", err))
	}
}
