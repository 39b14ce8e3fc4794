// Package mlp models the dense components of DLRM (§2.1): the bottom MLP
// that reprojects continuous features and the top MLP that captures feature
// interactions. The simulator never needs their outputs, only their cost: a
// FLOP count per forward pass, which the serving simulator converts into
// virtual compute time on a host's compute service rate.
package mlp

import "fmt"

// FLOPs returns the floating-point operation count of one forward pass
// through a stack of fully connected layers with the given widths (len ≥ 2:
// input width followed by each layer's output width), 2 FLOPs per
// multiply-accumulate.
func FLOPs(widths []int) (int64, error) {
	if len(widths) < 2 {
		return 0, fmt.Errorf("mlp: need at least input and one layer, got %d widths", len(widths))
	}
	var f int64
	for i := 0; i+1 < len(widths); i++ {
		in, out := widths[i], widths[i+1]
		if in <= 0 || out <= 0 {
			return 0, fmt.Errorf("mlp: widths must be positive, got %d→%d", in, out)
		}
		f += 2 * int64(in) * int64(out)
	}
	return f, nil
}

// CostModel converts network FLOPs into virtual seconds on a host with the
// given effective FLOP/s rate.
func CostModel(flops int64, flopsPerSecond float64) float64 {
	if flopsPerSecond <= 0 {
		return 0
	}
	return float64(flops) / flopsPerSecond
}
