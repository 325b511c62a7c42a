package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/fabric"
	"repro/internal/par"
	"repro/internal/perfmodel"
	"repro/internal/serve"
)

const (
	// serveRequests is how many requests one serve.Run replays.
	serveRequests = 4096
	// serveSetups is how many times a measured run sets serve up.
	serveSetups = 3
	// peakP99 is the latency bound of the peak_qps search, in seconds.
	peakP99 = 5e-3
	// peakRequests is how many requests each replay of the peak search
	// offers.
	peakRequests = 1 << 18
)

// serveRates are the two fixed offered rates, about 0.5× and 0.9× of the
// modeled capacity of the config at the time the benchmark was written.
var serveRates = []struct {
	label string
	qps   float64
}{{"170k", 170e3}, {"310k", 310e3}}

// serveRunCfg is the functional model behind every replica: MLPerf with
// its rows scaled ×1/1024.
func serveRunCfg() core.Config {
	c := core.MLPerf.Scaled(1.0 / 1024)
	c.Name = "MLPerf/1024"
	return c
}

// serveConfig prices MLPerf on 8 replicas under the B32/w2ms policy and,
// when ds is set, runs it functionally over ds.
func serveConfig(seed int64, runCfg *core.Config, ds data.Dataset, pools *cluster.Pools, ws *serve.Workspaces) serve.Config {
	return serve.Config{
		Cfg:        core.MLPerf,
		Replicas:   8,
		Topo:       fabric.NewPrunedFatTree(8, 12.5e9),
		Socket:     perfmodel.CLX8280,
		Backend:    cluster.CCLBackend,
		Policy:     serve.Policy{MaxBatch: 32, MaxWait: 2e-3},
		OfferedQPS: serveRates[0].qps,
		Requests:   serveRequests,
		Seed:       seed,
		RunCfg:     runCfg,
		Dataset:    ds,
		Pools:      pools,
		Workspaces: ws,
	}
}

// serveRun is serve.Run with a panic turned into an error.
func serveRun(c serve.Config) (res *serve.Result, err error) {
	err = safely(func() error {
		var e error
		res, e = serve.Run(c)
		return e
	})
	return res, err
}

// server is one set-up serving workload.
type server struct {
	base  serve.Config
	ds    *data.RequestLog
	pools *cluster.Pools
}

// setupServe builds the request log, pools and workspaces, and warms them
// with a short functional replay.
func setupServe(seed int64, tr *tracer) (*server, error) {
	s := &server{}
	runCfg := serveRunCfg()
	tr.do("data.NewRequestLog", func() { s.ds = data.NewRequestLog(seed, runCfg.DenseIn, runCfg.Rows, runCfg.Lookups) })
	var ws *serve.Workspaces
	tr.do("cluster.NewPools", func() { s.pools = cluster.NewPools() })
	tr.do("serve.NewWorkspaces", func() { ws = serve.NewWorkspaces() })
	s.base = serveConfig(seed, &runCfg, s.ds, s.pools, ws)
	warm := s.base
	warm.Requests = 64
	var err error
	tr.do("serve.Run", func() { _, err = serveRun(warm) })
	if err != nil {
		s.pools.Close()
		return nil, err
	}
	return s, nil
}

// referencePredictions predicts the first n requests on one single-socket
// Predictor over the full model every replica is a shard of.
func referencePredictions(s *server, n int) []float32 {
	pool := par.NewPool(runtime.GOMAXPROCS(0))
	defer pool.Close()
	p := core.NewPredictor(core.NewModel(*s.base.RunCfg, 1, s.base.Seed), pool)
	out := make([]float32, n)
	mb := &data.MiniBatch{}
	const chunk = 256
	for k0 := 0; k0 < n; k0 += chunk {
		k1 := min(n, k0+chunk)
		s.ds.FillRange(0, n, k0, k1, mb)
		p.PredictInto(mb, out[k0:k1])
	}
	return out
}

// runServe is the measured run: functional replays alternating between the
// two rates, every prediction checked against the single-socket reference.
func runServe(seed int64, budget time.Duration) *outcome {
	o := &outcome{}
	var setups []float64
	var s *server
	for k := 0; k < serveSetups; k++ {
		if s != nil {
			s.pools.Close()
			s = nil
			release()
		}
		var err error
		d := stopwatch(func() { s, err = setupServe(seed, nil) })
		o.Attempted++
		if err != nil {
			o.Failed++
			o.check("setup", false, "%v", err)
			return o
		}
		setups = append(setups, d.Seconds())
	}
	defer s.pools.Close()
	ref := referencePredictions(s, serveRequests)

	var rates []float64
	first := map[string]*serve.Result{}
	p99s := map[string][]float64{}
	var wrong int
	var firstErr error
	deadline := time.Now().Add(budget)
	for i := 0; i < len(serveRates) || time.Now().Before(deadline); i++ {
		r := serveRates[i%len(serveRates)]
		c := s.base
		c.OfferedQPS = r.qps
		var res *serve.Result
		var err error
		d := stopwatch(func() { res, err = serveRun(c) })
		o.Attempted += c.Requests
		if err == nil {
			var w int
			w, err = checkPredictions(res.Preds, ref, res.Shed)
			wrong += w
			o.Failed += res.Shed + w
			rates = append(rates, float64(res.Served)/d.Seconds())
			p99s[r.label] = append(p99s[r.label], res.P99)
			if first[r.label] == nil {
				first[r.label] = res
			}
		} else {
			o.Failed += c.Requests
		}
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("%s: %w", r.label, err)
		}
	}
	o.check("predictions", firstErr == nil, "%s", errText(firstErr,
		"every served prediction bit-identical to the single-socket Predictor, every shed one NaN"))
	if len(rates) == 0 {
		return o
	}
	o.add("setup_s", median(setups), "s")
	o.add("samples_per_s", median(rates), "samples/s")
	o.add("preds_per_s", median(rates), "preds/s")
	o.add("runs", float64(len(rates)), "count")
	o.add("wrong_predictions", float64(wrong), "count")
	for _, r := range serveRates {
		res := first[r.label]
		if res == nil {
			continue
		}
		o.add("p50_ms_"+r.label, res.P50*1e3, "virtual-ms")
		o.add("p99_ms_"+r.label, res.P99*1e3, "virtual-ms")
		o.add("shed_"+r.label, float64(res.Shed), "count")
		err := checkIdentical(p99s[r.label])
		o.check("latency repeats "+r.label, err == nil, "%s", errText(err, "p99 bit-identical over repeats"))
	}

	timing := serveConfig(seed, nil, nil, nil, nil)
	capacity, err := serveCapacity(timing)
	if err == nil {
		o.add("capacity_qps", capacity, "q/s")
		var peak float64
		peak, err = peakQPS(timing, capacity)
		o.add("peak_qps", peak, "q/s")
	}
	o.check("peak search", err == nil, "%s", errText(err, fmt.Sprintf("p99 <= %.0f ms, nothing shed, served >= 0.99x offered", peakP99*1e3)))
	return o
}

// serveCapacity is the modeled peak: every replica busy with full batches,
// Replicas·MaxBatch/ServiceTime(MaxBatch).
func serveCapacity(c serve.Config) (float64, error) {
	svc, err := c.ServiceTime(c.Policy.MaxBatch)
	if err != nil {
		return 0, err
	}
	return float64(c.Replicas*c.Policy.MaxBatch) / svc, nil
}

// peakQPS searches, in timing-only mode, for the highest offered rate at
// which p99 stays within peakP99, nothing is shed and the served
// throughput keeps up with at least 0.99× the offered rate. The search
// replays peakRequests requests, so the drain after the last arrival is a
// small share of the run, and it measures the offered rate on the replayed
// stream itself: for a fixed seed arrival times scale exactly as 1/rate,
// so the arrival span at rate q is the span at 1 q/s divided by q.
func peakQPS(c serve.Config, capacity float64) (float64, error) {
	c.Requests = peakRequests
	c.OfferedQPS = 1
	res, err := serveRun(c)
	if err != nil {
		return 0, err
	}
	span1 := res.Makespan
	ok := func(qps float64) (bool, error) {
		c.OfferedQPS = qps
		res, err := serveRun(c)
		if err != nil {
			return false, err
		}
		offered := float64(c.Requests) * qps / span1
		return res.P99 <= peakP99 && res.Shed == 0 && res.Throughput >= 0.99*offered, nil
	}
	lo, hi := 0.05*capacity, 1.5*capacity
	if good, err := ok(lo); err != nil || !good {
		return 0, fmt.Errorf("no rate passes, not even %.0f q/s (err %v)", lo, err)
	}
	for i := 0; i < 24; i++ {
		mid := (lo + hi) / 2
		good, err := ok(mid)
		if err != nil {
			return 0, err
		}
		if good {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}
