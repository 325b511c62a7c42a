package main

import (
	"fmt"
	"math"
)

// The correctness checks are pure functions of a run's outputs, so the
// self-tests can feed them deliberately corrupted outputs.

// checkLosses requires every step's loss to be finite and the loss of step
// at (0-based, the set-up's warm-up step is step 0) to fall inside band —
// the range recorded across seeds, widened so reordered floating-point
// sums still pass.
func checkLosses(losses []float64, at int, band [2]float64) error {
	for i, l := range losses {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			return fmt.Errorf("step %d: loss %v is not finite", i, l)
		}
	}
	if len(losses) <= at {
		return fmt.Errorf("only %d steps, the band check needs step %d", len(losses), at)
	}
	if l := losses[at]; l < band[0] || l > band[1] {
		return fmt.Errorf("step %d: loss %.6f outside the recorded band [%.4f, %.4f]", at, l, band[0], band[1])
	}
	return nil
}

// checkIdentical requires every value to have the same bits as the first:
// virtual times are a pure function of the configuration.
func checkIdentical(vals []float64) error {
	for i, v := range vals {
		if math.Float64bits(v) != math.Float64bits(vals[0]) {
			return fmt.Errorf("repeat %d: %v differs from the first run's %v", i, v, vals[0])
		}
	}
	return nil
}

// checkParity requires the distributed run's per-iteration mean losses to
// match the single-socket losses within tol.
func checkParity(dist, single []float64, tol float64) error {
	if len(dist) != len(single) {
		return fmt.Errorf("%d distributed losses for %d single-socket ones", len(dist), len(single))
	}
	for i := range dist {
		if d := math.Abs(dist[i] - single[i]); !(d <= tol) {
			return fmt.Errorf("iteration %d: loss %v vs single-socket %v (|diff| %g > %g)", i, dist[i], single[i], d, tol)
		}
	}
	return nil
}

// checkPredictions compares a serving run's predictions with the
// single-socket reference: a served request's prediction must have the
// reference's exact bits, a shed request's must be NaN, and the NaNs must
// number shed. It returns the count of wrong predictions and the first
// problem found.
func checkPredictions(got, ref []float32, shed int) (wrong int, err error) {
	if len(got) != len(ref) {
		return len(ref), fmt.Errorf("%d predictions for %d requests", len(got), len(ref))
	}
	nan := 0
	for k, p := range got {
		if math.IsNaN(float64(p)) {
			nan++
			continue
		}
		if math.Float32bits(p) != math.Float32bits(ref[k]) {
			wrong++
			if err == nil {
				err = fmt.Errorf("request %d: prediction %v, single-socket %v", k, p, ref[k])
			}
		}
	}
	if nan != shed {
		if nan > shed {
			wrong += nan - shed
		}
		if err == nil {
			err = fmt.Errorf("%d NaN predictions for %d shed requests", nan, shed)
		}
	}
	return wrong, err
}
