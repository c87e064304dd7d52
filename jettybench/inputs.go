package main

import (
	"fmt"
	"math/rand"

	"jetty/internal/jetty"
	"jetty/internal/service"
	"jetty/internal/sim"
	"jetty/internal/sweep"
	"jetty/internal/workload"
)

// Inputs: every op a workload sends is a pure function of the seed
// argument and the op's ordinal, so the same seed replays the same op
// sequence (and the same cell digests) on any commit. Freshness comes
// from the inputs themselves — a seed-derived per-op scale jitter
// changes every cell's access budget and so its content address — never
// from disabling a cache.

// jitterSpan bounds the per-op scale jitter: op scales lie in
// [base, base*(1+jitterSpan/jitterDenom)), at most 5% above base, and
// no two ops of a run share one. One jitter step moves every app's
// budget by at least two references at the workloads' base scales, so
// float rounding can never map two steps to one budget
// (TestJitterGivesDistinctBudgets).
const (
	jitterSpan  = 500
	jitterDenom = 10000
)

// jitters returns the seed's op-ordered jitter sequence: a permutation
// of [0, jitterSpan), so every op's scale differs from every other's.
func jitters(seed int64) []int {
	return rand.New(rand.NewSource(seed)).Perm(jitterSpan)
}

// jittered applies jitter j to base.
func jittered(base float64, j int) float64 {
	return base * (1 + float64(j)/jitterDenom)
}

// maxOps is how many distinct ops a run can measure: the jitter range
// (and, for cluster-trace-rerun, the fresh-filter list, less what the
// traced run's wire probes take) bounds it.
func maxOps(w string) int {
	if w == wlCluster {
		return len(clusterFilters)/2 - 2 - 2*wireProbes
	}
	return jitterSpan
}

const (
	wlFilter  = "filter-sweep"
	wlL2      = "l2-sweep-durable"
	wlCluster = "cluster-trace-rerun"
	wlLive    = "live-experiment"
)

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{wlFilter, wlL2, wlCluster, wlLive}

// Sizes. One op takes 0.1–0.35 s on a 2-vCPU host. l2-sweep-durable's
// cells are larger than the rest so that fsync latency, which swings
// with the host's disk load, stays a minority of an op.
const (
	filterSweepScale = 0.025
	l2SweepScale     = 0.1
	liveScale        = 0.02
	liveInterval     = 2048
	clusterTraceApp  = "Ocean"
	clusterScale     = 0.25
)

// table2Names is the paper's ten-application suite.
func table2Names() []string {
	var out []string
	for _, sp := range workload.Specs() {
		out = append(out, sp.Name)
	}
	return out
}

// filterSweepSpec is op k of filter-sweep: the ten Table 2 apps × the
// first sixteen figure filters, one cell per filter.
func filterSweepSpec(js []int, k int) sweep.Spec {
	return sweep.Spec{
		Name:       fmt.Sprintf("filter-sweep-%d", k),
		Workloads:  table2Names(),
		Filters:    sim.AllFigureConfigs()[:16],
		FilterMode: sweep.ModeEach,
		Scale:      jittered(filterSweepScale, js[k]),
	}
}

// l2Machines is the L2-sensitivity and NSB machine axis.
var l2Machines = []sweep.Machine{
	{L2Bytes: 512 << 10},
	{L2Bytes: 1 << 20},
	{L2Bytes: 2 << 20},
	{L2Bytes: 4 << 20},
	{L2Assoc: 8},
	{NSB: true},
}

// l2Filters are the three representative filters: the best exclude,
// the best include and their hybrid.
var l2Filters = []string{"EJ-32x4", "IJ-10x4x7", "HJ(IJ-10x4x7,EJ-32x4)"}

// l2SweepSpec is op k of l2-sweep-durable.
func l2SweepSpec(js []int, k int) sweep.Spec {
	return sweep.Spec{
		Name:       fmt.Sprintf("l2-sweep-%d", k),
		Workloads:  []string{"Ocean", "Barnes"},
		Machines:   l2Machines,
		Filters:    l2Filters,
		FilterMode: sweep.ModeEach,
		Scale:      jittered(l2SweepScale, js[k]),
	}
}

// clusterFilters is the pool cluster-trace-rerun draws fresh filters
// from: every valid exclude and vector-exclude geometry in a modest
// range, in a fixed order (the seed permutes it per run).
var clusterFilters = func() []string {
	var out []string
	for sets := 4; sets <= 4096; sets *= 2 {
		for ways := 1; ways <= 16; ways++ {
			names := []string{fmt.Sprintf("EJ-%dx%d", sets, ways)}
			for _, v := range []int{2, 4, 8, 16} {
				names = append(names, fmt.Sprintf("VEJ-%dx%d-%d", sets, ways, v))
			}
			for _, n := range names {
				if _, err := jetty.Parse(n); err == nil {
					out = append(out, n)
				}
			}
		}
	}
	return out
}()

// clusterMachines are the two machines every cluster op sweeps.
var clusterMachines = []sweep.Machine{{}, {NSB: true}}

// clusterOrder returns the seed's permutation of clusterFilters.
func clusterOrder(seed int64) []string {
	perm := rand.New(rand.NewSource(seed ^ 0x5eed)).Perm(len(clusterFilters))
	out := make([]string, len(perm))
	for i, p := range perm {
		out[i] = clusterFilters[p]
	}
	return out
}

// clusterSpec is op k of cluster-trace-rerun: the trace × two machines
// × filters order[2k..2k+4). Op k's first two filters are op k-1's last
// two, so exactly half of its cells repeat the previous op's and half
// are new.
func clusterSpec(digest string, order []string, k int) sweep.Spec {
	return sweep.Spec{
		Name:       fmt.Sprintf("trace-rerun-%d", k),
		Workloads:  []string{sweep.TracePrefix + digest},
		Machines:   clusterMachines,
		Filters:    append([]string(nil), order[2*k:2*k+4]...),
		FilterMode: sweep.ModeEach,
	}
}

// clusterTraceSpec is the generator spec whose run setup captures as
// the cluster workload's trace: a fixed app, so every seed costs the
// same, with a seed-derived generator seed.
func clusterTraceSpec(seed int64) (workload.Spec, error) {
	sp, err := workload.Lookup(clusterTraceApp)
	if err != nil {
		return workload.Spec{}, err
	}
	sp = sp.Scale(clusterScale)
	sp.Seed += 1 + rand.New(rand.NewSource(seed)).Int63n(1<<30)
	return sp, nil
}

// liveFilters are live-experiment's two filters.
var liveFilters = []string{"EJ-32x4", "HJ(IJ-10x4x7,EJ-32x4)"}

// liveRequest is op k of live-experiment: one app at a tiny scale, two
// filters, sampled so /live streams windows.
func liveRequest(js []int, k int) service.SubmitRequest {
	return service.SubmitRequest{
		Apps:     []string{"Barnes"},
		Scale:    jittered(liveScale, js[k]),
		Filters:  liveFilters,
		Interval: liveInterval,
	}
}
