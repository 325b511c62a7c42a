package main

import (
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/embedding"
	"repro/internal/fabric"
	"repro/internal/par"
	"repro/internal/perfmodel"
)

// clusterSetups is how many times a measured run sets cluster-64r up; one
// set-up takes milliseconds, so more of them steady the median.
const clusterSetups = 21

// ccl64 is the headline variant of Fig. 9: CCL backend, native Alltoall.
var ccl64 = core.Variant{Strategy: core.Alltoall, Backend: cluster.CCLBackend}

// clusterConfig is the Fig. 9 headline in timing mode: Large on 64 ranks,
// GN=16,384, pruned fat tree, the library-default schedule (bucketed and
// overlapped, contention off), with shared pools and workspaces.
func clusterConfig(pools *cluster.Pools, wss *core.DistWorkspaces) core.DistConfig {
	return core.DistConfig{
		Cfg:        core.Large,
		Ranks:      64,
		GlobalN:    core.Large.GlobalMB,
		Iters:      1,
		Variant:    ccl64,
		Topo:       fabric.NewPrunedFatTree(64, 12.5e9),
		Socket:     perfmodel.CLX8280,
		Pools:      pools,
		Workspaces: wss,
	}
}

// distRun is DistConfig.Run with a panic turned into an error.
func distRun(dc core.DistConfig) (res *core.DistResult, err error) {
	err = safely(func() error {
		var e error
		res, e = dc.Run()
		return e
	})
	return res, err
}

// setupCluster creates the shared pools and workspaces and runs the
// warm-up iteration that sizes them.
func setupCluster(tr *tracer) (core.DistConfig, *cluster.Pools, error) {
	var pools *cluster.Pools
	var wss *core.DistWorkspaces
	tr.do("cluster.NewPools", func() { pools = cluster.NewPools() })
	tr.do("core.NewDistWorkspaces", func() { wss = core.NewDistWorkspaces() })
	var dc core.DistConfig
	tr.do("fabric.NewPrunedFatTree", func() { dc = clusterConfig(pools, wss) })
	var err error
	tr.do("core.DistConfig.Run", func() { _, err = distRun(dc) })
	return dc, pools, err
}

// runCluster is the measured run: repeated timing-mode runs of one
// simulated iteration each, every one checked for the same virtual time.
func runCluster(seed int64, budget time.Duration) *outcome {
	o := &outcome{}
	var setups []float64
	var dc core.DistConfig
	var pools *cluster.Pools
	for k := 0; k < clusterSetups; k++ {
		if pools != nil {
			pools.Close()
			release()
		}
		var err error
		d := stopwatch(func() { dc, pools, err = setupCluster(nil) })
		o.Attempted++
		if err != nil {
			o.Failed++
			o.check("setup", false, "%v", err)
			return o
		}
		setups = append(setups, d.Seconds())
	}
	defer pools.Close()

	var walls, virt []float64
	deadline := time.Now().Add(budget)
	for len(walls) < 3 || time.Now().Before(deadline) {
		var res *core.DistResult
		var err error
		d := stopwatch(func() { res, err = distRun(dc) })
		o.Attempted++
		if err != nil {
			o.Failed++
			if o.Failed > 3 {
				break
			}
			continue
		}
		walls = append(walls, d.Seconds()/float64(dc.Iters))
		virt = append(virt, res.IterSeconds)
	}
	if len(walls) == 0 {
		o.check("runs", false, "every DistConfig.Run failed")
		return o
	}
	iterS := median(walls)
	o.add("setup_s", median(setups), "s")
	o.add("samples_per_s", float64(dc.GlobalN)/iterS, "samples/s")
	o.add("sim_iters_per_s", 1/iterS, "iters/s")
	o.add("iter_ms", iterS*1e3, "ms")
	o.add("iter_ms_p99", percentile(walls, 0.99)*1e3, "ms")
	o.add("runs", float64(len(walls)), "count")
	o.add("virtual_ms_per_iter", virt[0]*1e3, "virtual-ms")
	err := checkIdentical(virt)
	o.check("virtual time repeats", err == nil, "%s", errText(err, "bit-identical over all runs"))

	losses, single, err := clusterParity(seed)
	if err == nil {
		err = checkParity(losses, single, 1e-6)
	}
	o.Attempted++
	if err != nil {
		o.Failed++
	}
	o.check("functional parity", err == nil, "%s", errText(err, "tiny config, 4 ranks, default schedule: losses match single socket within 1e-6"))
	return o
}

// clusterParity trains a tiny config functionally on 4 ranks under the same
// default schedule and the same variant, and on one socket, over the same
// click-log batches, returning both loss curves.
func clusterParity(seed int64) (dist, single []float64, err error) {
	cfg := core.Config{
		Name: "Tiny", MB: 64, GlobalMB: 64, LocalMB: 16,
		Lookups: 3, Tables: 4, EmbDim: 16, Rows: []int{200, 300, 100, 250},
		DenseIn: 8, BotHidden: []int{32}, TopHidden: []int{64, 32},
	}
	const ranks, globalN, iters, lr = 4, 64, 3, 0.5
	run := cfg
	res, err := distRun(core.DistConfig{
		Cfg: cfg, Ranks: ranks, GlobalN: globalN, Iters: iters, Variant: ccl64,
		Topo: fabric.NewPrunedFatTree(ranks, 12.5e9), Socket: perfmodel.CLX8280,
		RunCfg: &run, Dataset: data.NewClickLog(seed, cfg.DenseIn, cfg.Rows, cfg.Lookups),
		Seed: modelSeed, LR: lr,
	})
	if err != nil {
		return nil, nil, err
	}
	pool := par.NewPool(runtime.GOMAXPROCS(0))
	defer pool.Close()
	tr := core.NewTrainer(core.NewModel(cfg, trainBN, modelSeed), pool, embedding.RaceFree, lr, core.FP32)
	ds := data.NewClickLog(seed, cfg.DenseIn, cfg.Rows, cfg.Lookups)
	for i := 0; i < iters; i++ {
		single = append(single, tr.Step(ds.Batch(i, globalN)))
	}
	return res.MeanLosses(), single, nil
}
