package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/embedding"
	"repro/internal/par"
)

// trainSpec is one single-socket training workload.
type trainSpec struct {
	name string
	cfg  core.Config
	prec core.Precision
	lr   float32
	// band holds the loss of step checkStep for any seed: the range it
	// fell in over seeds 1..40 (perfbench --calibrate 40; train-mlp
	// [0.478, 0.715], train-emb [0.629, 0.703]) widened by at least 0.1 on
	// each side, so kernel changes that reorder floating-point sums still
	// pass while a diverging or non-finite step does not.
	band [2]float64
}

const (
	// modelSeed initializes every model; the workload seed drives only the
	// generated inputs.
	modelSeed = 1
	// trainBN is the minibatch blocking of the trained models.
	trainBN = 16
	// checkStep is the step whose loss is held to the band; step 0 is the
	// set-up's warm-up step, so every run trains at least checkStep+1 steps.
	checkStep = 4
	// trainSetups is how many times a measured run sets a train workload up.
	trainSetups = 3
)

// trainMLP is Table I's Small config with its rows scaled ×1/64 (8 tables
// of 15,625×64 fp32 = 31 MiB, inside the L3) at MB=256: the MLP GEMMs are
// nearly the whole step.
func trainMLP() trainSpec {
	cfg := core.Small.Scaled(1.0 / 64)
	cfg.Name = "Small/64"
	cfg.MB = 256
	return trainSpec{name: "train-mlp", cfg: cfg, prec: core.FP32, lr: 0.1, band: [2]float64{0.30, 0.90}}
}

// trainEmb keeps Small's embedding geometry (S=8, P=50, E=64) at 250,000
// rows per table (488 MiB, several times the L3) behind tiny MLPs, at
// MB=2048 with BF16 Split-SGD: the embedding passes dominate the step.
func trainEmb() trainSpec {
	rows := make([]int, 8)
	for i := range rows {
		rows[i] = 250_000
	}
	cfg := core.Config{
		Name: "Small-emb", MB: 2048, GlobalMB: 2048, LocalMB: 2048,
		Lookups: 50, Tables: 8, EmbDim: 64, Rows: rows,
		DenseIn: 13, TopHidden: []int{64},
	}
	return trainSpec{name: "train-emb", cfg: cfg, prec: core.BF16Split, lr: 0.1, band: [2]float64{0.50, 0.85}}
}

func runTrainMLP(seed int64, budget time.Duration) *outcome {
	return runTrain(trainMLP(), seed, budget)
}
func runTrainEmb(seed int64, budget time.Duration) *outcome {
	return runTrain(trainEmb(), seed, budget)
}

// spanLoader wraps the trainer's loader and, when traced, records a span
// around each Next — the time a step waits for its batch.
type spanLoader struct {
	data.Loader
	tr *tracer
}

func (l *spanLoader) Next() *data.RankBatch {
	id := l.tr.begin("data.Loader.Next")
	b := l.Loader.Next()
	l.tr.end(id)
	return b
}

// trainer is one set-up training workload.
type trainer struct {
	spec   trainSpec
	pool   *par.Pool
	ds     *data.ClickLog
	ld     *spanLoader
	tr     *core.Trainer
	losses []float64
}

// setupTrain builds the dataset, model, pool, trainer and prefetching
// loader, and runs the warm-up step. tr may be nil.
func setupTrain(spec trainSpec, seed int64, tr *tracer) (*trainer, error) {
	t := &trainer{spec: spec}
	cfg := spec.cfg
	tr.do("data.NewClickLog", func() { t.ds = data.NewClickLog(seed, cfg.DenseIn, cfg.Rows, cfg.Lookups) })
	var m *core.Model
	tr.do("core.NewModel", func() { m = core.NewModel(cfg, trainBN, modelSeed) })
	tr.do("par.NewPool", func() { t.pool = par.NewPool(runtime.GOMAXPROCS(0)) })
	tr.do("core.NewTrainer", func() { t.tr = core.NewTrainer(m, t.pool, embedding.RaceFree, spec.lr, spec.prec) })
	tr.do("data.NewBatchLoader", func() { t.ld = &spanLoader{Loader: data.NewBatchLoader(t.ds, cfg.MB, 0)} })
	var err error
	tr.do("core.Trainer.Run", func() { err = t.step() })
	if err != nil {
		t.close()
		return nil, fmt.Errorf("warm-up step: %w", err)
	}
	return t, nil
}

// step runs one Trainer.Run of one iteration and records its loss. A run
// error, a panic or a non-finite loss is an error.
func (t *trainer) step() error {
	loss := math.NaN()
	err := safely(func() error {
		return t.tr.Run(core.RunOpts{Loader: t.ld, Iters: 1, Each: func(_ int, l float64) { loss = l }})
	})
	t.losses = append(t.losses, loss)
	if err == nil && (math.IsNaN(loss) || math.IsInf(loss, 0)) {
		err = fmt.Errorf("step %d: loss %v", len(t.losses)-1, loss)
	}
	return err
}

func (t *trainer) close() {
	t.ld.Close()
	t.pool.Close()
}

// runTrain is the measured run: trainSetups set-ups (the last one is kept),
// then one Trainer.Run step at a time for the budget.
func runTrain(spec trainSpec, seed int64, budget time.Duration) *outcome {
	o := &outcome{}
	var setups []float64
	var t *trainer
	for k := 0; k < trainSetups; k++ {
		if t != nil {
			t.close()
			t = nil
			release()
		}
		var err error
		d := stopwatch(func() { t, err = setupTrain(spec, seed, nil) })
		o.Attempted++
		if err != nil {
			o.Failed++
			o.check("setup", false, "%v", err)
			return o
		}
		setups = append(setups, d.Seconds())
	}
	defer t.close()

	var steps []float64
	deadline := time.Now().Add(budget)
	for len(t.losses) <= checkStep || time.Now().Before(deadline) {
		var err error
		d := stopwatch(func() { err = t.step() })
		o.Attempted++
		if err != nil {
			o.Failed++
		}
		steps = append(steps, d.Seconds())
	}
	stepS := median(steps)
	o.add("setup_s", median(setups), "s")
	o.add("samples_per_s", float64(spec.cfg.MB)/stepS, "samples/s")
	o.add("step_ms", stepS*1e3, "ms")
	o.add("steps", float64(len(steps)), "count")
	o.add("check_loss", t.losses[checkStep], "loss")
	o.add("final_loss", t.losses[len(t.losses)-1], "loss")
	err := checkLosses(t.losses, checkStep, spec.band)
	o.check("losses", err == nil, "%s", errText(err, fmt.Sprintf("%d finite, step %d in band", len(t.losses), checkStep)))
	return o
}

// calibrateBands prints each train workload's check-step loss for seeds
// 1..n: the record the bands in trainMLP and trainEmb are read from.
func calibrateBands(w io.Writer, n int) {
	for _, spec := range []trainSpec{trainMLP(), trainEmb()} {
		lo, hi := math.Inf(1), math.Inf(-1)
		for seed := int64(1); seed <= int64(n); seed++ {
			t, err := setupTrain(spec, seed, nil)
			if err != nil {
				fmt.Fprintf(w, "%s seed %d: %v\n", spec.name, seed, err)
				continue
			}
			for len(t.losses) <= checkStep && err == nil {
				err = t.step()
			}
			t.close()
			l := t.losses[len(t.losses)-1]
			lo, hi = math.Min(lo, l), math.Max(hi, l)
			fmt.Fprintf(w, "%s seed %d: step %d loss %.6f (err %v)\n", spec.name, seed, checkStep, l, err)
			release()
		}
		fmt.Fprintf(w, "%s: step %d loss range [%.6f, %.6f], band in use [%.4f, %.4f]\n",
			spec.name, checkStep, lo, hi, spec.band[0], spec.band[1])
	}
}

// errText renders err, or ok when it is nil.
func errText(err error, ok string) string {
	if err != nil {
		return err.Error()
	}
	return ok
}
