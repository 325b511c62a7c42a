package main

import (
	"math"
	"testing"
)

// Each correctness check must pass the real output and reject a
// deliberately corrupted copy of it.

func TestLossCheckRejectsNaNAndOutOfBand(t *testing.T) {
	band := [2]float64{0.55, 0.80}
	good := []float64{0.70, 0.69, 0.69, 0.68, 0.67, 0.66}
	if err := checkLosses(good, checkStep, band); err != nil {
		t.Fatalf("good losses rejected: %v", err)
	}
	nan := append([]float64(nil), good...)
	nan[len(nan)-1] = math.NaN()
	if checkLosses(nan, checkStep, band) == nil {
		t.Error("a NaN loss passed")
	}
	inf := append([]float64(nil), good...)
	inf[1] = math.Inf(1)
	if checkLosses(inf, checkStep, band) == nil {
		t.Error("an infinite loss passed")
	}
	off := append([]float64(nil), good...)
	off[checkStep] = 0.9
	if checkLosses(off, checkStep, band) == nil {
		t.Error("a loss outside the band passed")
	}
	if checkLosses(good[:checkStep], checkStep, band) == nil {
		t.Error("a run too short for the band check passed")
	}
}

func TestVirtualTimeCheckRejectsChangedTime(t *testing.T) {
	dc, pools, err := setupCluster(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer pools.Close()
	var virt []float64
	for i := 0; i < 3; i++ {
		res, err := distRun(dc)
		if err != nil {
			t.Fatal(err)
		}
		virt = append(virt, res.IterSeconds)
	}
	if err := checkIdentical(virt); err != nil {
		t.Fatalf("repeated runs rejected: %v", err)
	}
	virt[2] = math.Nextafter(virt[2], math.Inf(1))
	if checkIdentical(virt) == nil {
		t.Error("a virtual time one ulp off passed")
	}
}

func TestParityCheckRejectsPerturbedLoss(t *testing.T) {
	dist, single, err := clusterParity(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkParity(dist, single, 1e-6); err != nil {
		t.Fatalf("functional run rejected: %v", err)
	}
	dist[1] += 2e-6
	if checkParity(dist, single, 1e-6) == nil {
		t.Error("a loss 2e-6 off passed")
	}
	dist[1] = math.NaN()
	if checkParity(dist, single, 1e-6) == nil {
		t.Error("a NaN loss passed")
	}
}

func TestPredictionCheckRejectsPerturbedPrediction(t *testing.T) {
	s, err := setupServe(5, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.pools.Close()
	c := s.base
	c.Requests = 256
	res, err := serveRun(c)
	if err != nil {
		t.Fatal(err)
	}
	ref := referencePredictions(s, c.Requests)
	if wrong, err := checkPredictions(res.Preds, ref, res.Shed); err != nil || wrong != 0 {
		t.Fatalf("served predictions rejected: %d wrong, %v", wrong, err)
	}

	perturbed := append([]float32(nil), res.Preds...)
	perturbed[17] = math.Nextafter32(perturbed[17], 2)
	if wrong, err := checkPredictions(perturbed, ref, 0); err == nil || wrong != 1 {
		t.Errorf("a prediction one ulp off: %d wrong, err %v", wrong, err)
	}

	shed := append([]float32(nil), res.Preds...)
	shed[3] = float32(math.NaN())
	if _, err := checkPredictions(shed, ref, 1); err != nil {
		t.Errorf("a shed request with a NaN prediction rejected: %v", err)
	}
	if _, err := checkPredictions(shed, ref, 0); err == nil {
		t.Error("a NaN prediction for a served request passed")
	}
	if _, err := checkPredictions(res.Preds, ref, 1); err == nil {
		t.Error("a shed request with a prediction passed")
	}
}
