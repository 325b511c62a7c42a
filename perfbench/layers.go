package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/bf16"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/embedding"
	"repro/internal/loss"
	"repro/internal/mlp"
	"repro/internal/optim"
	"repro/internal/par"
	"repro/internal/perfmodel"
	"repro/internal/serve"
	"repro/internal/tensor"
	"repro/internal/trace"
)

const (
	// probeReps is how many times each serving probe is repeated; the
	// reported figure is the median.
	probeReps = 3
	// tracedReps is how many rounds of an untraced step, a traced step and
	// the per-layer probes the traced run makes per train workload.
	tracedReps = 5
	// probeBatch is the click-log batch the training probes run on, one
	// no training step reads.
	probeBatch = 1 << 20
	// serveProbeBatch is the micro-batch the serving probes run at: the
	// policy's MaxBatch.
	serveProbeBatch = 32
)

// perLayer names every metric the traced run reports to the gate, all
// measured on the wall clock. Virtual-clock layer figures are in the
// report lines only: they are a pure function of the configuration.
var perLayer = perLayerMetrics()

func perLayerMetrics() []metric {
	var ms []metric
	add := func(name, unit string) { ms = append(ms, metric{Name: name, Unit: unit}) }
	for _, spec := range []trainSpec{trainMLP(), trainEmb()} {
		p := spec.name + "."
		add(p+"core.step_ms", "ms")
		for _, ph := range []string{"embeddings", "mlp", "rest"} {
			add(p+"core.prof."+ph+"_ms", "ms")
		}
		add(p+"data.next_wait_ms", "ms")
		add(p+"data.fill_ms", "ms")
		for _, l := range layerNames(spec.cfg) {
			add(p+"mlp."+l+".fwd_ms", "ms")
			add(p+"mlp."+l+".bwd_ms", "ms")
			add(p+"mlp."+l+".gflops", "GFLOP/s")
		}
		add(p+"interaction.fwd_ms", "ms")
		add(p+"interaction.bwd_ms", "ms")
		add(p+"embedding.fwd_gbps", "GB/s")
		add(p+"embedding.bwd_ms", "ms")
		add(p+"embedding.update_gbps", "GB/s")
		add(p+"optim.mlp_step_ms", "ms")
		add(p+"loss.bce_ms", "ms")
	}
	add("cluster-64r.dist.run_ms", "ms")
	add("serve.predict_ms_b32", "ms")
	add("serve.replica_build_ms", "ms")
	for _, r := range serveRates {
		add("serve.run_ms_"+r.label, "ms")
	}
	for _, l := range layerNames(serveRunCfg()) {
		add("serve.mlp."+l+".fwd_ms", "ms")
	}
	add("serve.interaction.fwd_ms", "ms")
	add("serve.embedding.fwd_gbps", "GB/s")
	return ms
}

// layerNames lists a config's MLP layers bottom first: bot0.., top0...
func layerNames(cfg core.Config) []string {
	var out []string
	for i := 0; i+1 < len(cfg.BotSizes()); i++ {
		out = append(out, fmt.Sprintf("bot%d", i))
	}
	for i := 0; i+1 < len(cfg.TopSizes()); i++ {
		out = append(out, fmt.Sprintf("top%d", i))
	}
	return out
}

// tracedRun is the traced run's outcome plus the spans it recorded.
type tracedRun struct {
	outcome *outcome
	spans   []span
	self    map[string]float64
}

// runTraced is the separate traced run: it covers all four workloads, so
// every per-layer metric is measured whichever workload is named.
func runTraced(seed int64) tracedRun {
	tr := newTracer(fmt.Sprintf("seed%d-%d", seed, time.Now().UnixNano()))
	o := &outcome{Workload: "traced"}
	for _, spec := range []trainSpec{trainMLP(), trainEmb()} {
		id := tr.begin(spec.name)
		traceTrain(spec, seed, tr, o)
		tr.end(id)
		release()
	}
	id := tr.begin("cluster-64r")
	traceCluster(tr, o)
	tr.end(id)
	id = tr.begin("serve")
	traceServe(seed, tr, o)
	tr.end(id)
	err := checkNesting(tr.spans)
	o.check("spans nest", err == nil, "%s", errText(err, fmt.Sprintf("%d spans, each inside its parent", len(tr.spans))))
	return tracedRun{outcome: o, spans: tr.spans, self: selfTimes(tr.spans)}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func medianDur(ds []time.Duration) time.Duration {
	return time.Duration(median(seconds(ds)) * 1e9)
}

// traceTrain sets a train workload up under spans, then repeats an
// untraced step, a traced step and one round of per-layer probes — each
// layer's public calls on the workload's own model and batch. Keeping the
// three side by side makes the tracing overhead and each layer's share of
// the step ratios of measurements taken under the same machine state.
func traceTrain(spec trainSpec, seed int64, tr *tracer, o *outcome) {
	p := spec.name + "."
	t, err := setupTrain(spec, seed, tr)
	o.Attempted++
	if err != nil {
		o.Failed++
		o.check(p+"setup", false, "%v", err)
		return
	}
	defer t.close()

	cfg, m, pool, n := spec.cfg, t.tr.M, t.pool, spec.cfg.MB
	mb := t.ds.Batch(probeBatch, n)
	emb := newEmbProbe(m, mb)
	dense := newDenseProbe(m, n)
	opt := newOptimProbe(m, spec)
	prof := trace.NewProfile()
	var plain, traced, fill, embFwd, embBwd, embSweep, optim []time.Duration
	var mlpShare, embShare []float64
	for r := 0; r < tracedReps; r++ {
		var errPlain, errTraced error
		t.ld.tr, t.tr.Prof = nil, nil
		plain = append(plain, stopwatch(func() { errPlain = t.step() }))
		t.ld.tr, t.tr.Prof = tr, prof
		step := tr.do("core.Trainer.Run", func() { errTraced = t.step() })
		t.ld.tr, t.tr.Prof = nil, nil
		traced = append(traced, step)
		for _, err := range []error{errPlain, errTraced} {
			o.Attempted++
			if err != nil {
				o.Failed++
			}
		}

		fill = append(fill, tr.do("data.ClickLog.FillRange", func() { t.ds.FillRange(probeBatch, n, 0, n, mb) }))
		fwd := emb.forward(pool, m, mb, tr)
		layers := dense.run(pool, mb, emb.out, true, tr)
		bwd, upd := emb.backward(pool, m, mb, dense.dEmb, spec, tr)
		embFwd, embBwd, embSweep = append(embFwd, fwd), append(embBwd, bwd), append(embSweep, bwd+upd)
		optim = append(optim, opt.step(m, spec.lr, tr))
		mlpShare = append(mlpShare, 100*layers.Seconds()/step.Seconds())
		embShare = append(embShare, 100*(fwd+bwd+upd).Seconds()/step.Seconds())
	}
	err = checkLosses(t.losses, 0, [2]float64{math.Inf(-1), math.Inf(1)})
	o.check(p+"losses finite", err == nil, "%s", errText(err, fmt.Sprintf("%d steps", len(t.losses))))

	step := medianDur(traced)
	o.add(p+"core.step_ms", ms(step), "ms")
	o.add(p+"trace.overhead_pct", 100*(step.Seconds()/medianDur(plain).Seconds()-1), "%")
	var stepSum time.Duration
	for _, d := range traced {
		stepSum += d
	}
	for _, ph := range []string{"embeddings", "mlp", "rest"} {
		o.add(p+"core.prof."+ph+"_ms", ms(prof.Total(ph))/tracedReps, "ms")
		o.add(p+"core.prof."+ph+"_share_pct", 100*prof.Total(ph).Seconds()/stepSum.Seconds(), "%")
	}
	waits := durations(tr.spans, "data.Loader.Next")
	o.add(p+"data.next_wait_ms", ms(medianDur(waits[max(0, len(waits)-tracedReps):])), "ms")
	o.add(p+"data.fill_ms", ms(medianDur(fill)), "ms")
	o.add(p+"embedding.fwd_gbps", perfmodel.EmbeddingFwdBytes(cfg.Tables, n, cfg.Lookups, cfg.EmbDim)/medianDur(embFwd).Seconds()/1e9, "GB/s")
	o.add(p+"embedding.bwd_ms", ms(medianDur(embBwd)), "ms")
	o.add(p+"embedding.update_gbps", perfmodel.EmbeddingUpdBytes(cfg.Tables, n, cfg.Lookups, cfg.EmbDim)/medianDur(embSweep).Seconds()/1e9, "GB/s")
	o.add(p+"optim.mlp_step_ms", ms(medianDur(optim)), "ms")
	dense.report(o, p)
	// The share of the step each stressed layer accounts for, from the
	// probes next to each step: the MLP layers' passes on train-mlp, the
	// embedding passes on train-emb. The Prof shares above measure the
	// same inside the traced steps, by the trainer's own phase split.
	o.add(p+"mlp_share_pct", median(mlpShare), "%")
	o.add(p+"embedding_share_pct", median(embShare), "%")
}

// embProbe times one round of every table's public embedding calls.
type embProbe struct {
	out [][]float32 // bag outputs of the last forward
	dW  [][]float32 // per-lookup gradient rows of the last backward
}

func newEmbProbe(m *core.Model, mb *data.MiniBatch) *embProbe {
	e := &embProbe{}
	for t, tab := range m.Tables {
		e.out = append(e.out, make([]float32, mb.N*tab.E))
		e.dW = append(e.dW, make([]float32, mb.Sparse[t].NumLookups()*tab.E))
	}
	return e
}

// forward runs every table's Forward and returns the summed time.
func (e *embProbe) forward(pool *par.Pool, m *core.Model, mb *data.MiniBatch, tr *tracer) time.Duration {
	var sum time.Duration
	for t, tab := range m.Tables {
		sum += tr.do("embedding.Table.Forward", func() { tab.Forward(pool, mb.Sparse[t], e.out[t]) })
	}
	return sum
}

// backward runs every table's Backward and the race-free update of the
// workload's precision, returning the summed times of each.
func (e *embProbe) backward(pool *par.Pool, m *core.Model, mb *data.MiniBatch, dEmb [][]float32, spec trainSpec, tr *tracer) (bwd, upd time.Duration) {
	for t, tab := range m.Tables {
		b := mb.Sparse[t]
		bwd += tr.do("embedding.Table.Backward", func() { tab.Backward(pool, b, dEmb[t], e.dW[t]) })
		if spec.prec == core.BF16Split {
			// One table's split at a time keeps the extra memory to a
			// single table's hi/lo halves.
			split := bf16.NewSplit(tab.W)
			upd += tr.do("embedding.Table.UpdateSplitRaceFree", func() { tab.UpdateSplitRaceFree(pool, split, b, e.dW[t], spec.lr) })
		} else {
			upd += tr.do("embedding.Table.Update", func() { tab.Update(pool, embedding.RaceFree, b, e.dW[t], spec.lr) })
		}
	}
	return bwd, upd
}

// optimProbe holds one optimizer per MLP parameter tensor, of the kind
// the trainer uses at the workload's precision.
type optimProbe []struct {
	opt  optim.Optimizer
	grad []float32
}

func newOptimProbe(m *core.Model, spec trainSpec) optimProbe {
	var op optimProbe
	for _, net := range []*mlp.MLP{m.Bot, m.Top} {
		for _, l := range net.Layers {
			for _, pg := range [][2][]float32{{l.W.Data, l.DW.Data}, {l.Bias, l.DBias}} {
				var o optim.Optimizer = optim.NewSGD(pg[0])
				if spec.prec == core.BF16Split {
					o = optim.NewSplitSGD(pg[0])
				}
				op = append(op, struct {
					opt  optim.Optimizer
					grad []float32
				}{o, pg[1]})
			}
		}
	}
	return op
}

// step applies one optimizer step to every MLP parameter tensor.
func (op optimProbe) step(m *core.Model, lr float32, tr *tracer) time.Duration {
	d := tr.do("optim.Optimizer.Step", func() {
		for _, p := range op {
			p.opt.Step(p.grad, lr)
		}
	})
	m.Bot.InvalidateTransposes()
	m.Top.InvalidateTransposes()
	return d
}

// denseProbe runs a model's dense path one public call at a time and
// keeps every repetition's timings.
type denseProbe struct {
	m                  *core.Model
	layers             []*mlp.Layer // bottom layers, then top layers
	nb                 int          // bottom layer count
	names              []string
	flops              []float64         // forward FLOPs per layer
	fwd, bwd           [][]time.Duration // [layer][repetition]
	interFwd, interBwd []time.Duration
	bce                []time.Duration
	z, dz, dBot        []float32
	dEmb               [][]float32 // embedding gradients of the last backward
}

// newDenseProbe sizes the probe for n samples. FLOPs are counted from the
// layer shapes: 2·N·C·K forward, twice that backward (once for the first
// layer, which skips its input gradient).
func newDenseProbe(m *core.Model, n int) *denseProbe {
	dp := &denseProbe{
		m:      m,
		layers: append(append([]*mlp.Layer(nil), m.Bot.Layers...), m.Top.Layers...),
		nb:     len(m.Bot.Layers),
		names:  layerNames(m.Cfg),
		z:      make([]float32, n*m.Inter.OutputDim()),
		dz:     make([]float32, n),
		dBot:   make([]float32, n*m.Cfg.EmbDim),
	}
	for _, l := range dp.layers {
		dp.flops = append(dp.flops, 2*float64(n)*float64(l.C)*float64(l.K))
	}
	dp.fwd = make([][]time.Duration, len(dp.layers))
	dp.bwd = make([][]time.Duration, len(dp.layers))
	for range m.Cfg.Tables {
		dp.dEmb = append(dp.dEmb, make([]float32, n*m.Cfg.EmbDim))
	}
	return dp
}

// run makes one repetition: each bottom layer's Forward, the interaction,
// each top layer's Forward, then (with backward) the loss and every
// Backward in reverse. It returns the time spent in the MLP layers.
func (dp *denseProbe) run(pool *par.Pool, mb *data.MiniBatch, embOut [][]float32, backward bool, tr *tracer) time.Duration {
	m, n := dp.m, mb.N
	e, od := m.Cfg.EmbDim, m.Inter.OutputDim()
	var layers time.Duration
	x := tensor.PackActs(mb.Dense, m.BN, mlp.BlockPick(mb.Dense.Cols, 64))
	for i, l := range dp.layers {
		if i == dp.nb {
			bot := x.Unpack()
			dp.interFwd = append(dp.interFwd, tr.do("interaction.Op.Forward", func() { m.Inter.Forward(pool, n, bot.Data, embOut, dp.z) }))
			x = tensor.PackActs(&tensor.Dense{Rows: n, Cols: od, Data: dp.z}, m.BN, mlp.BlockPick(od, 64))
		}
		in := x
		d := tr.do("mlp.Layer.Forward", func() { x = l.Forward(pool, in) })
		dp.fwd[i] = append(dp.fwd[i], d)
		layers += d
	}
	if !backward {
		return layers
	}
	logits := x.Unpack().Data
	dp.bce = append(dp.bce, tr.do("loss.BCEWithLogits", func() { loss.BCEWithLogits(logits, mb.Labels, dp.dz) }))
	dy := tensor.PackActs(&tensor.Dense{Rows: n, Cols: 1, Data: dp.dz}, m.BN, 1)
	for i := len(dp.layers) - 1; i >= 0; i-- {
		l, in, wantDX := dp.layers[i], dy, i > 0
		d := tr.do("mlp.Layer.Backward", func() { dy = l.Backward(pool, in, wantDX) })
		dp.bwd[i] = append(dp.bwd[i], d)
		layers += d
		if i == dp.nb {
			dInter := dy.Unpack()
			dp.interBwd = append(dp.interBwd, tr.do("interaction.Op.Backward", func() { m.Inter.Backward(pool, dInter.Data, dp.dBot, dp.dEmb) }))
			dy = tensor.PackActs(&tensor.Dense{Rows: n, Cols: e, Data: dp.dBot}, m.BN, mlp.BlockPick(e, 64))
		}
	}
	return layers
}

// report adds the dense-path metrics under prefix p.
func (dp *denseProbe) report(o *outcome, p string) {
	for i, name := range dp.names {
		f := medianDur(dp.fwd[i])
		o.add(p+"mlp."+name+".fwd_ms", ms(f), "ms")
		if len(dp.bwd[i]) == 0 {
			continue
		}
		b := medianDur(dp.bwd[i])
		bwdFlops := 2 * dp.flops[i]
		if i == 0 {
			bwdFlops = dp.flops[i] // the first layer skips its input gradient
		}
		o.add(p+"mlp."+name+".bwd_ms", ms(b), "ms")
		o.add(p+"mlp."+name+".gflops", (dp.flops[i]+bwdFlops)/(f+b).Seconds()/1e9, "GFLOP/s")
	}
	o.add(p+"interaction.fwd_ms", ms(medianDur(dp.interFwd)), "ms")
	if len(dp.interBwd) > 0 {
		o.add(p+"interaction.bwd_ms", ms(medianDur(dp.interBwd)), "ms")
		o.add(p+"loss.bce_ms", ms(medianDur(dp.bce)), "ms")
	}
}

// traceCluster runs the cluster workload under spans and reports the
// per-layer breakdown: its wall time per simulated iteration, and the
// virtual compute and per-collective figures read from the DistResult.
func traceCluster(tr *tracer, o *outcome) {
	const p = "cluster-64r."
	dc, pools, err := setupCluster(tr)
	o.Attempted++
	if err != nil {
		o.Failed++
		o.check(p+"setup", false, "%v", err)
		return
	}
	defer pools.Close()
	var walls []time.Duration
	var res *core.DistResult
	for r := 0; r < 20; r++ {
		walls = append(walls, tr.do("core.DistConfig.Run", func() { res, err = distRun(dc) }))
		o.Attempted++
		if err != nil {
			o.Failed++
			o.check(p+"run", false, "%v", err)
			return
		}
	}
	o.add(p+"dist.run_ms", ms(medianDur(walls))/float64(dc.Iters), "ms")
	o.add(p+"dist.compute_ms_per_iter", res.ComputePerIter*1e3, "virtual-ms")
	type agg struct{ busy, exposed, hidden float64 }
	byLabel := map[string]*agg{}
	for _, e := range res.Exposures() {
		label, _, _ := strings.Cut(e.Label, ":")
		a := byLabel[label]
		if a == nil {
			a = &agg{}
			byLabel[label] = a
		}
		a.busy += e.Busy
		a.exposed += e.Exposed
		a.hidden += e.Hidden
	}
	labels := make([]string, 0, len(byLabel))
	for l := range byLabel {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		a := byLabel[l]
		o.add(p+"comm."+l+".busy_ms", a.busy*1e3, "virtual-ms")
		o.add(p+"comm."+l+".exposed_ms", a.exposed*1e3, "virtual-ms")
		share := 0.0
		if a.busy > 0 {
			share = a.hidden / a.busy
		}
		o.add(p+"comm."+l+".hidden_share", share, "ratio")
	}
	o.add(p+"comm.alltoall_bytes_per_iter", dc.Cfg.AlltoallBytes(dc.GlobalN), "B")
	o.add(p+"comm.allreduce_bytes_per_iter", dc.Cfg.AllreduceBytes(), "B")
	var maxWait float64
	for _, s := range res.Stats {
		maxWait = math.Max(maxWait, s.TotalWait()/float64(dc.Iters))
	}
	o.add(p+"cluster.max_rank_wait_ms", maxWait*1e3, "virtual-ms")
}

// traceServe replays both rates functionally under spans and times the
// serving path's pieces at the policy's batch size: the replica rebuild
// every serve.Run pays, a single-socket Predictor.PredictInto, and each
// layer's forward.
func traceServe(seed int64, tr *tracer, o *outcome) {
	const p = "serve."
	s, err := setupServe(seed, tr)
	o.Attempted++
	if err != nil {
		o.Failed++
		o.check(p+"setup", false, "%v", err)
		return
	}
	defer s.pools.Close()
	svc, err := s.base.ServiceTime(serveProbeBatch)
	if err == nil {
		o.add(p+"service_ms_b32", svc*1e3, "virtual-ms")
	}
	for _, r := range serveRates {
		c := s.base
		c.OfferedQPS = r.qps
		var res *serve.Result
		d := tr.do("serve.Run", func() { res, err = serveRun(c) })
		o.Attempted++
		if err != nil {
			o.Failed++
			o.check(p+"run "+r.label, false, "%v", err)
			continue
		}
		o.add(p+"run_ms_"+r.label, ms(d), "ms")
		o.add(p+"mean_batch_"+r.label, res.MeanBatch, "requests")
		o.add(p+"batches_"+r.label, float64(res.Batches), "count")
		o.add(p+"shed_"+r.label, float64(res.Shed), "count")
	}

	runCfg := *s.base.RunCfg
	var build []time.Duration
	for r := 0; r < probeReps; r++ {
		var sum time.Duration
		for rank := 0; rank < s.base.Replicas; rank++ {
			sum += tr.do("core.NewModelShard", func() { core.NewModelShard(runCfg, 1, s.base.Seed, rank, s.base.Replicas) })
		}
		build = append(build, sum)
	}
	o.add(p+"replica_build_ms", ms(medianDur(build)), "ms")

	var m *core.Model
	tr.do("core.NewModel", func() { m = core.NewModel(runCfg, 1, s.base.Seed) })
	pool := par.NewPool(runtime.GOMAXPROCS(0))
	defer pool.Close()
	pred := core.NewPredictor(m, pool)
	mb := &data.MiniBatch{}
	s.ds.FillRange(0, serveRequests, 0, serveProbeBatch, mb)
	out := make([]float32, serveProbeBatch)
	var predict []time.Duration
	for r := 0; r < probeReps; r++ {
		predict = append(predict, tr.do("core.Predictor.PredictInto", func() { pred.PredictInto(mb, out) }))
	}
	o.add(p+"predict_ms_b32", ms(medianDur(predict)), "ms")
	emb := newEmbProbe(m, mb)
	dense := newDenseProbe(m, serveProbeBatch)
	var fwd []time.Duration
	for r := 0; r < probeReps; r++ {
		fwd = append(fwd, emb.forward(pool, m, mb, tr))
		dense.run(pool, mb, emb.out, false, tr)
	}
	fwdBytes := perfmodel.EmbeddingFwdBytes(runCfg.Tables, serveProbeBatch, runCfg.Lookups, runCfg.EmbDim)
	o.add(p+"embedding.fwd_gbps", fwdBytes/medianDur(fwd).Seconds()/1e9, "GB/s")
	dense.report(o, p)
}
