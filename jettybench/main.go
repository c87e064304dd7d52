// Command jettybench is the repository's benchmark: it boots jettyd
// daemons in-process behind real loopback HTTP, drives one named
// workload as a closed loop with a single client, checks the served
// results, and prints every metric by name with its unit. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set; with -trace 1 a
// traced run reports the per-layer set instead. "jettybench compare"
// is the offline comparator (compare.go). METHOD.md documents every
// metric.
//
// Usage (from the repository root):
//
//	bash jettybench/run.sh --workload filter-sweep --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// A run boots its system setupReps times, or as many (at least three)
// as fit in setupBudget; setup_s is the median. Every boot after the
// first restarts the system on the data directory the previous one
// left, as jettyd restarts on its -data-dir, so the median boot does
// not create stores: on a shared disk the CPU time of the fsyncs that
// creating them takes varied threefold from run to run. Before each
// boot the process idles for setupSettle, so that the previous boot's
// teardown (serve loops, engine workers and client connections winding
// down) is not counted in the next boot.
const (
	setupReps   = 51
	setupBudget = 2 * time.Second
	setupSettle = 10 * time.Millisecond
)

// buildDir is where the benchmark keeps everything it writes, relative
// to the repository root it runs from.
const buildDir = ".bench_build"

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	fs := flag.NewFlagSet("jettybench", flag.ExitOnError)
	w := fs.String("workload", "", "workload: "+fmt.Sprint(workloadNames))
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 20, "measured seconds")
	traced := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	_ = fs.Parse(os.Args[1:]) // ExitOnError
	if !slices.Contains(workloadNames, *w) || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "jettybench: need --workload one of", workloadNames, "--seconds >= 1 --trace 0|1")
		os.Exit(2)
	}
	if err := run(*w, *seed, time.Duration(*seconds)*time.Second, *traced == 1); err != nil {
		fmt.Fprintln(os.Stderr, "jettybench:", err)
		os.Exit(1)
	}
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the final output line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(w string, seed int64, window time.Duration, traced bool) error {
	runtime.GOMAXPROCS(runtime.NumCPU())
	ctx := context.Background()
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	dataRoot, err := os.MkdirTemp(buildDir, "data-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dataRoot)
	host := readHostFacts(dataRoot)
	hj, _ := json.Marshal(host) // plain data
	fmt.Printf("# host %s\n", hj)
	fmt.Printf("# workload %s seed %d seconds %.0f trace %v\n", w, seed, window.Seconds(), traced)

	c := newClient()
	defer c.close()

	// Set-up: boot the system (daemons, stores, traces) several times;
	// setup_s is the median CPU time of a boot (its wall time is printed
	// too), and the ops run on the last boot.
	var e *env
	var setups, setupWalls []float64
	began := time.Now()
	for i := 0; i < setupReps && (i < 3 || time.Since(began) < setupBudget); i++ {
		if e != nil {
			e.close()
		}
		time.Sleep(setupSettle)
		t, cpu := time.Now(), processCPU()
		e, err = setup(ctx, w, seed, filepath.Join(dataRoot, "system"), c)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, secs(processCPU()-cpu))
		setupWalls = append(setupWalls, secs(time.Since(t)))
	}
	defer e.close()
	r := newRunner(w, seed, e, c)

	// Warm-up op (untimed): lazy set-up finishes, and the cluster's first
	// op primes the cells the next op repeats.
	warm := r.op(ctx, 0)
	r.forget(ctx, warm)
	if warm.err != nil {
		return fmt.Errorf("warm-up op: %w", warm.err)
	}

	phase := window
	if traced {
		phase = window / 2
	}
	var before phaseCounters
	if traced {
		if before, err = readCounters(ctx, e, c); err != nil {
			return err
		}
	}
	ops := measure(ctx, r, phase, 1, traced)
	var after phaseCounters
	if traced {
		if after, err = readCounters(ctx, e, c); err != nil {
			return err
		}
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}

	rep := report{Correct: true, Attempted: len(ops), Metrics: map[string]metric{}}
	for _, op := range ops {
		if op.err != nil {
			rep.Failed++
			rep.Correct = false
			fmt.Fprintf(os.Stderr, "jettybench: op %d: %v\n", op.k, op.err)
		}
	}
	// Output verification, outside every timed interval: the first
	// measured op is recomputed in-process and compared bit for bit.
	if len(ops) > 0 {
		if err := verify(ctx, e, ops[0]); err != nil {
			if ops[0].err == nil {
				rep.Failed++
			}
			rep.Correct = false
			fmt.Fprintln(os.Stderr, "jettybench:", err)
		} else {
			fmt.Printf("# verified op %d bit-identical to the in-process reference\n", ops[0].k)
		}
	}
	if rep.Attempted == 0 {
		return fmt.Errorf("no op completed in %v", phase)
	}

	if traced {
		lm, err := layerMetrics(ctx, r, ops, before, after, window-phase)
		if err != nil {
			return err
		}
		for _, d := range perLayer {
			rep.Metrics[d.name] = metric{lm[d.name], d.unit}
		}
	} else {
		printMetric("setup_wall_s", median(setupWalls), "s")
		for name, v := range endToEnd(ops, setups, rss) {
			rep.Metrics[name] = metric{v, unitOf(name)}
		}
		printMetric("error_rate", float64(rep.Failed)/float64(rep.Attempted), "frac")
	}
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		m := rep.Metrics[n]
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", n, m.Value)
		}
		printMetric(n, m.Value, m.Unit)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// measure runs ops back to back from ordinal first for d: a closed loop,
// one client, the next op sent only after the previous one finished.
// Only the first op (which verification recomputes) keeps its served
// results, unless keep asks for all of them (the traced replay needs
// them); otherwise the client would hold every op's result and the
// peak RSS would grow with the number of ops a run completes.
func measure(ctx context.Context, r *runner, d time.Duration, first int, keep bool) []opResult {
	var ops []opResult
	deadline := time.Now().Add(d)
	for k := first; k < maxOps(r.w) && time.Now().Before(deadline); k++ {
		res := r.op(ctx, k)
		r.forget(ctx, res)
		if !keep && len(ops) > 0 {
			res.sweepRes, res.cellState, res.expRes, res.expStatus = nil, nil, nil, nil
		}
		ops = append(ops, res)
	}
	return ops
}

// endToEndDefs are the gated end-to-end metrics, in BENCHMARK.json
// order.
var endToEndDefs = []struct{ name, unit string }{
	{"op_cpu_ms_p50", "ms"},
	{"cells_per_cpu_s", "1/s"},
	{"maccess_per_cpu_s", "Maccess/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

func unitOf(name string) string {
	for _, d := range endToEndDefs {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}

// printMetric prints one figure by name with its unit.
func printMetric(name string, v float64, unit string) {
	fmt.Printf("%-32s %14.6g %s\n", name, v, unit)
}

// endToEnd derives the end-to-end figures: it returns the gated
// metrics, which count host CPU time, and prints the wall-clock ones. A
// failed op counts as an infinitely slow one in the percentiles (it
// missed any limit) and as a zero rate in the throughputs. Throughputs
// are medians of per-op rates: with one closed-loop client the
// throughput is the op rate, and a median keeps a few stalled ops from
// moving a run's figure.
func endToEnd(ops []opResult, setups []float64, rss float64) map[string]float64 {
	var lat, submit, cellRate, accessRate, cpu, cellCPU, accessCPU []float64
	for _, op := range ops {
		if op.err != nil {
			lat = append(lat, math.Inf(1))
			submit = append(submit, math.Inf(1))
			cpu = append(cpu, math.Inf(1))
			cellRate = append(cellRate, 0)
			accessRate = append(accessRate, 0)
			cellCPU = append(cellCPU, 0)
			accessCPU = append(accessCPU, 0)
			continue
		}
		lat = append(lat, secs(op.total))
		submit = append(submit, ms(op.submit))
		cpu = append(cpu, ms(op.cpu))
		cellRate = append(cellRate, float64(op.cells)/secs(op.total))
		accessRate = append(accessRate, float64(op.accesses)/secs(op.total)/1e6)
		cellCPU = append(cellCPU, float64(op.cells)/secs(op.cpu))
		accessCPU = append(accessCPU, float64(op.accesses)/secs(op.cpu)/1e6)
	}
	// Wall-clock figures, for the reader. On a shared 2-vCPU host they
	// swing with hypervisor steal far beyond any allowed bound
	// (METHOD.md), so they are not BENCHMARK.json metrics.
	printMetric("op_s_p50", quantile(lat, 0.5), "s")
	if p := highestPercentile(len(lat)); p >= 90 {
		printMetric("op_s_p90", quantile(lat, 0.9), "s")
	} else {
		fmt.Printf("# op_s_p90: only %d ops; the highest percentile with %d samples beyond it is p%d\n", len(lat), minTail, p)
	}
	printMetric("submit_ms_p50", quantile(submit, 0.5), "ms")
	printMetric("cells_per_s", median(cellRate), "1/s")
	printMetric("maccess_per_s", median(accessRate), "Maccess/s")
	fmt.Printf("# ops %d\n", len(lat))
	return map[string]float64{
		"op_cpu_ms_p50":     quantile(cpu, 0.5),
		"cells_per_cpu_s":   median(cellCPU),
		"maccess_per_cpu_s": median(accessCPU),
		"setup_s":           median(setups),
		"peak_rss_mb":       rss,
	}
}
