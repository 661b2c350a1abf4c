package autograd

import (
	"fmt"

	"clinfl/internal/tensor"
)

// ConcatRows stacks nodes vertically (all must share a column count).
// Used to gather per-example hidden states back into a batch matrix.
func (t *Tape) ConcatRows(nodes ...*Node) (*Node, error) {
	if len(nodes) == 0 {
		return t.Constant(tensor.New(0, 0)), nil
	}
	cols := nodes[0].Value.Cols()
	total := 0
	for _, p := range nodes {
		if p.Value.Cols() != cols {
			return nil, fmt.Errorf("autograd: %w: ConcatRows col mismatch %d vs %d",
				tensor.ErrShape, p.Value.Cols(), cols)
		}
		total += p.Value.Rows()
	}
	v := t.newMatrixUninit(total, cols)
	off := 0
	for _, p := range nodes {
		r := p.Value.Rows()
		for i := 0; i < r; i++ {
			copy(v.Row(off+i), p.Value.Row(i))
		}
		off += r
	}
	return t.newOpN(opConcatRows, v, nodes), nil
}
