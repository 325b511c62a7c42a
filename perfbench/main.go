// Command perfbench is the repository's end-to-end benchmark: four
// workloads that each stress a different part of the DLRM system, measured
// on the wall clock, with the virtual-clock figures of the simulated
// cluster and serving tier reported alongside and checked for correctness.
//
//	train-mlp    Trainer.Run on Small ×1/64 rows, MB=256, FP32 — MLP-bound
//	train-emb    Trainer.Run on 8×250k×64 tables, MB=2048, BF16 Split-SGD — embedding-bound
//	cluster-64r  timing-mode DistConfig.Run, Large on 64 ranks, CCL Alltoall — cluster/comm/fabric
//	serve        functional serve.Run of MLPerf ×1/1024 rows on 8 replicas at 170k and 310k q/s
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload train-mlp --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload serve --seed 1 --trace 1
//
// A measured run (--trace 0) sets the workload up several times, then runs
// its operation in a closed loop for --seconds and checks every output. The
// traced run (--trace 1) is separate: it always covers all four workloads,
// records a span around each call into a module's public API and derives
// the per-layer metrics from those spans.
//
// Every workload reports the same two end-to-end metrics, both on the wall
// clock: setup_s, the median of several set-ups, and samples_per_s, the
// median over operations of samples trained, simulated (GN per iteration)
// or predicted per second. BENCHMARK.json gates them on train-mlp,
// train-emb and serve; cluster-64r reports them ungated (see workloads). The report lines also name each workload's own
// figures: step_ms; sim_iters_per_s and virtual_ms_per_iter;
// preds_per_s, p50/p99_ms at 170k and 310k q/s and peak_qps. The virtual
// ones are a pure function of the configuration and the seed, so they are
// checked for repeatability rather than gated as timings.
//
// Standard output is a report — the host shape, every named metric with
// its unit, every correctness check — and, as its last line, one JSON
// object {"correct", "attempted", "failed", "metrics"}. The exit code is 1
// when a correctness check fails and 2 on a usage error. The same report is
// written as JSON under .bench_build/perfbench, with the spans of a traced
// run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metric is one named figure with its unit.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// check is one correctness check's verdict.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// outcome is what one workload's run produced.
type outcome struct {
	Workload  string   `json:"workload"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Checks    []check  `json:"checks"`
	Metrics   []metric `json:"metrics"`
}

func (o *outcome) add(name string, v float64, unit string) {
	o.Metrics = append(o.Metrics, metric{name, v, unit})
}

func (o *outcome) check(name string, ok bool, format string, args ...any) {
	o.Checks = append(o.Checks, check{name, ok, fmt.Sprintf(format, args...)})
}

func (o *outcome) correct() bool {
	for _, c := range o.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

func (o *outcome) value(name string) (float64, bool) {
	for _, m := range o.Metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// workload is one measured scenario. A gated workload is listed in
// BENCHMARK.json, so its end-to-end metrics are compared run against run;
// the others run only when named on the command line.
type workload struct {
	name  string
	why   string
	gated bool
	run   func(seed int64, budget time.Duration) *outcome
}

// cluster-64r is not gated: its wall time is goroutine handoffs between 64
// ranks, and on a shared 2-vCPU Xeon the middle half of its per-run
// medians spread over 5-27% of their median at GOMAXPROCS=2 and 7-25% at
// GOMAXPROCS=1 across sets of five to ten runs; its fastest-percentile and
// windowed-minimum run times spread as far on a busy host. That is past
// what a 25% bound can gate. Its virtual time and parity are still checked
// whenever it runs, and the traced run still reports
// cluster-64r.dist.run_ms.
var workloads = []workload{
	{"train-mlp", "MLP GEMMs are ~97% of a Small x1/64 step at MB=256, so gemm and mlp changes show here and embedding changes do not", true, runTrainMLP},
	{"train-emb", "embedding forward, backward and BF16 split update dominate a step whose 488 MiB of tables miss the L3, beside a Zipf loader sharing the cores", true, runTrainEmb},
	{"cluster-64r", "timing-mode Large on 64 ranks runs no real kernel: its wall time is cluster, comm, fabric and the dist schedule alone", false, runCluster},
	{"serve", "forward-only embedding reads, GEMMs at batch <= 32, the dispatcher and a replica rebuild per serve.Run: what big-batch training gains cost serving", true, runServe},
}

// endToEnd names the metrics a measured run reports to the gate; every
// workload reports both. The workload-specific figures (virtual latencies,
// peak q/s, ...) are in the report lines above the JSON.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s"},
	{Name: "samples_per_s", Unit: "samples/s"},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := fs.Int64("seed", 1, "seed of the generated inputs (click log, request log, arrivals)")
	seconds := fs.Float64("seconds", 10, "measured seconds per workload")
	traced := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the measured one")
	calibrate := fs.Int("calibrate", 0, "print the train workloads' check losses for seeds 1..N and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *calibrate > 0 {
		calibrateBands(stdout, *calibrate)
		return 0
	}
	var selected []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s or all), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	h := probeHost()
	fmt.Fprintln(stdout, h)
	res := result{Host: h, Seed: *seed, Trace: *traced}
	var outs []*outcome
	if *traced == 1 {
		lr := runTraced(*seed)
		outs = []*outcome{lr.outcome}
		res.Spans = lr.spans
		res.Self = lr.self
	} else {
		for _, w := range selected {
			steal0, total0 := cpuTicks()
			o := w.run(*seed, time.Duration(*seconds*float64(time.Second)))
			o.Workload = w.name
			o.add("peak_rss_mib", peakRSSMiB(), "MiB")
			if steal1, total1 := cpuTicks(); total1 > total0 {
				o.add("host_steal_pct", 100*(steal1-steal0)/(total1-total0), "%")
			}
			outs = append(outs, o)
		}
	}
	line := summarize(outs, *traced == 1)
	for _, o := range outs {
		printOutcome(stdout, o)
	}
	res.Outcomes = outs
	if err := res.write(*name); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
	}
	b, _ := json.Marshal(line)
	fmt.Fprintln(stdout, string(b))
	if !line.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// jsonMetric is the value/unit pair of the last output line.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last output line.
type summary struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// summarize folds the outcomes into the last line: a measured run reports
// the end-to-end metrics (for a single workload; "all" prefixes them with
// the workload name), a traced run its per-layer metrics.
func summarize(outs []*outcome, traced bool) summary {
	s := summary{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, o := range outs {
		s.Attempted += o.Attempted
		s.Failed += o.Failed
		if !o.correct() {
			s.Correct = false
		}
		names := endToEnd
		if traced {
			names = perLayer
		}
		for _, m := range names {
			v, ok := o.value(m.Name)
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				s.Correct = false
				o.check("metric "+m.Name, false, "not measured")
				continue
			}
			key := m.Name
			if len(outs) > 1 {
				key = o.Workload + "." + m.Name
			}
			s.Metrics[key] = jsonMetric{v, m.Unit}
		}
	}
	if s.Attempted == 0 {
		s.Attempted = 1
		s.Failed = 1
		s.Correct = false
	}
	return s
}

func printOutcome(w io.Writer, o *outcome) {
	ms := append([]metric(nil), o.Metrics...)
	sort.SliceStable(ms, func(i, j int) bool { return ms[i].Name < ms[j].Name })
	for _, m := range ms {
		fmt.Fprintf(w, "%-12s %-44s %14.6g %s\n", o.Workload, m.Name, m.Value, m.Unit)
	}
	for _, c := range o.Checks {
		verdict := "ok"
		if !c.OK {
			verdict = "FAILED"
		}
		fmt.Fprintf(w, "%-12s check %-38s %s  %s\n", o.Workload, c.Name, verdict, c.Detail)
	}
	fmt.Fprintf(w, "%-12s attempted %d, failed %d\n", o.Workload, o.Attempted, o.Failed)
}

// resultDir, relative to the repository root, receives each run's JSON
// record: the report plus, for a traced run, its spans.
const resultDir = ".bench_build/perfbench"

// result is the JSON record a run leaves in resultDir.
type result struct {
	Host     host               `json:"host"`
	Seed     int64              `json:"seed"`
	Trace    int                `json:"trace"`
	Outcomes []*outcome         `json:"outcomes"`
	Spans    []span             `json:"spans,omitempty"`
	Self     map[string]float64 `json:"self_ms,omitempty"`
}

func (r *result) write(name string) error {
	if err := os.MkdirAll(resultDir, 0o755); err != nil {
		return err
	}
	kind := "result"
	if r.Trace == 1 {
		kind = "trace"
	}
	b, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(resultDir, fmt.Sprintf("%s-%s-seed%d.json", kind, name, r.Seed)), b, 0o644)
}

// safely runs fn and turns a panic into an error, so one failed operation
// is counted rather than crashing the run.
func safely(fn func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return fn()
}

// release collects the garbage of a dropped set-up and returns its memory
// to the OS, so the next measurement starts from a settled heap.
func release() { debug.FreeOSMemory() }
