package main

import (
	"context"
	"slices"
	"testing"

	"jetty/internal/sim"
	"jetty/internal/sweep"
	"jetty/internal/workload"
)

// opKeys expands ops [0, n) of workload w for seed and returns each op's
// cell digests (the content addresses the daemons cache under).
func opKeys(t *testing.T, w string, seed int64, n int, in sim.TraceInput) [][]string {
	t.Helper()
	e := &env{trace: in}
	r := newRunner(w, seed, e, nil)
	var out [][]string
	for k := 0; k < n; k++ {
		var keys []string
		if w == wlLive {
			req := liveRequest(r.js, k)
			cfg, err := sim.PaperBankConfig(4, req.NSB, req.Filters)
			if err != nil {
				t.Fatal(err)
			}
			sp, err := experimentRun(req, req.Apps[0])
			if err != nil {
				t.Fatal(err)
			}
			keys = []string{sim.SampledKey(sim.Fingerprint(sp, cfg), req.Interval)}
		} else {
			cells, err := r.spec(k).Expand(e.resolver)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range cells {
				keys = append(keys, c.Key)
			}
		}
		out = append(out, keys)
	}
	return out
}

func TestSameSeedSameOpsAndDigests(t *testing.T) {
	ctx := context.Background()
	traces := map[int64]sim.TraceInput{}
	for _, seed := range []int64{7, 8} {
		data, err := captureTrace(ctx, seed)
		if err != nil {
			t.Fatal(err)
		}
		again, err := captureTrace(ctx, seed)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(data, again) {
			t.Fatalf("seed %d: the captured trace differs between captures", seed)
		}
		if traces[seed], err = sim.LoadTrace("", data); err != nil {
			t.Fatal(err)
		}
	}
	const ops = 12
	for _, w := range workloadNames {
		a := opKeys(t, w, 7, ops, traces[7])
		b := opKeys(t, w, 7, ops, traces[7])
		other := opKeys(t, w, 8, ops, traces[8])
		for k := range a {
			if !slices.Equal(a[k], b[k]) {
				t.Errorf("%s op %d: the same seed gave different cell digests", w, k)
			}
			if slices.Equal(a[k], other[k]) {
				t.Errorf("%s op %d: seeds 7 and 8 gave the same cell digests", w, k)
			}
		}
	}
}

// TestOpsAreFresh pins the freshness design the run-time guard checks:
// no generator op repeats any cell of an earlier op, and every cluster
// op repeats exactly half of its predecessor's cells.
func TestOpsAreFresh(t *testing.T) {
	data, err := captureTrace(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	in, err := sim.LoadTrace("", data)
	if err != nil {
		t.Fatal(err)
	}
	const ops = 40
	for _, w := range workloadNames {
		keys := opKeys(t, w, 3, ops, in)
		seen := map[string]int{}
		for k, ks := range keys {
			repeats := 0
			for _, key := range ks {
				if _, ok := seen[key]; ok {
					repeats++
				}
			}
			want := 0
			if w == wlCluster && k > 0 {
				want = len(ks) / 2
				prev := map[string]bool{}
				for _, key := range keys[k-1] {
					prev[key] = true
				}
				for _, key := range ks {
					if _, ok := seen[key]; ok && !prev[key] {
						t.Errorf("%s op %d repeats a cell older than the previous op", w, k)
					}
				}
			}
			if repeats != want {
				t.Errorf("%s op %d: %d of %d cells repeat earlier ops, want %d", w, k, repeats, len(ks), want)
			}
			for _, key := range ks {
				seen[key] = k
			}
		}
	}
	if n := len(sweep.PlanUnits(clusterSpec(in.Digest, clusterOrder(3), 1), mustExpand(t, clusterSpec(in.Digest, clusterOrder(3), 1), in))); n != len(clusterMachines) {
		t.Errorf("a cluster op plans %d units, want one per machine (%d)", n, len(clusterMachines))
	}
}

func mustExpand(t *testing.T, spec sweep.Spec, in sim.TraceInput) []sweep.Cell {
	t.Helper()
	cells, err := spec.Expand((&env{trace: in}).resolver)
	if err != nil {
		t.Fatal(err)
	}
	return cells
}

// TestJitterGivesDistinctBudgets checks every jitter value against every
// app a generator workload runs: distinct jitters must give distinct
// access budgets, or two ops would share a cell and the freshness guard
// would fail the run.
func TestJitterGivesDistinctBudgets(t *testing.T) {
	for _, c := range []struct {
		base float64
		apps []string
	}{
		{filterSweepScale, table2Names()},
		{l2SweepScale, l2SweepSpec(jitters(1), 0).Workloads},
		{liveScale, liveRequest(jitters(1), 0).Apps},
	} {
		for _, app := range c.apps {
			sp, err := workload.Lookup(app)
			if err != nil {
				t.Fatal(err)
			}
			seen := map[uint64]int{}
			for j := 0; j < jitterSpan; j++ {
				a := sp.Scale(jittered(c.base, j)).Accesses
				if prev, ok := seen[a]; ok {
					t.Fatalf("%s at scale %v: jitters %d and %d both give %d accesses", app, c.base, prev, j, a)
				}
				seen[a] = j
			}
		}
	}
}
