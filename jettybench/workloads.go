package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"jetty/internal/engine"
	"jetty/internal/service"
	"jetty/internal/sweep"
)

// pollEvery is the status-poll period of a sweep op: short against the
// shortest op, so polling adds little to the measured latency.
const pollEvery = 5 * time.Millisecond

// opResult is one op as the client saw it, plus what the server said
// about its cells.
type opResult struct {
	k           int
	submit      time.Duration // POST to acknowledgement
	total       time.Duration // POST to fully received result body
	cpu         time.Duration // CPU time of the whole process over the op
	result      time.Duration // GET result round trip
	resultBytes int
	polls       int
	cells       int
	executed    int
	accesses    uint64 // access budgets of executed cells
	windows     int    // live windows streamed
	firstWindow time.Duration

	spec      sweep.Spec            // sweep ops
	cellState []sweep.CellStatus    // sweep ops: final per-cell status
	sweepRes  *service.SweepResult  // sweep ops
	req       service.SubmitRequest // experiment ops
	expStatus *service.ExperimentStatus
	expRes    *service.ExperimentResult
	id        string
	err       error
}

// runner issues one workload's ops against its booted env.
type runner struct {
	w     string
	env   *env
	c     *client
	js    []int    // scale jitters (generator workloads)
	order []string // filter order (cluster-trace-rerun)
}

func newRunner(w string, seed int64, e *env, c *client) *runner {
	r := &runner{w: w, env: e, c: c, js: jitters(seed)}
	if w == wlCluster {
		r.order = clusterOrder(seed)
	}
	return r
}

// spec returns sweep op k's spec (sweep workloads only).
func (r *runner) spec(k int) sweep.Spec {
	switch r.w {
	case wlFilter:
		return filterSweepSpec(r.js, k)
	case wlL2:
		return l2SweepSpec(r.js, k)
	default:
		return clusterSpec(r.env.trace.Digest, r.order, k)
	}
}

// op runs op k to completion and checks its freshness.
func (r *runner) op(ctx context.Context, k int) opResult {
	var res opResult
	cpu := processCPU()
	if r.w == wlLive {
		res = r.liveOp(ctx, k, liveRequest(r.js, k))
	} else {
		res = r.sweepOp(ctx, k, r.spec(k))
	}
	res.cpu = processCPU() - cpu
	if res.err == nil {
		res.err = r.guard(res)
	}
	return res
}

// guard is the freshness check: every cell of a generator workload's op
// must have been executed, and exactly half of a cluster op's cells
// (after its first) must have been served from a cache. The benchmark
// never quietly measures the cache.
func (r *runner) guard(res opResult) error {
	want := res.cells
	if r.w == wlCluster && res.k > 0 {
		want = res.cells / 2
	}
	if res.executed != want {
		return fmt.Errorf("freshness guard: op %d executed %d of %d cells, want %d", res.k, res.executed, res.cells, want)
	}
	return nil
}

// forget deletes the finished op from the daemon's registry (outside
// the timed interval), so a long run's memory stays flat.
func (r *runner) forget(ctx context.Context, res opResult) {
	if res.id == "" {
		return
	}
	kind := "sweeps"
	if r.w == wlLive {
		kind = "experiments"
	}
	_ = r.c.do(ctx, http.MethodDelete, r.env.front.url+"/v1/"+kind+"/"+res.id, nil, nil) // best effort
}

func terminal(state string) bool {
	return state == "done" || state == "failed" || state == "canceled"
}

func (r *runner) sweepOp(ctx context.Context, k int, spec sweep.Spec) opResult {
	res := opResult{k: k, spec: spec}
	body, err := json.Marshal(spec)
	if err != nil {
		res.err = err
		return res
	}
	base := r.env.front.url + "/v1/sweeps"
	t0 := time.Now()
	var st service.SweepStatus
	if res.err = r.c.do(ctx, http.MethodPost, base, body, &st); res.err != nil {
		return res
	}
	res.submit = time.Since(t0)
	res.id = st.ID
	for !terminal(st.State) {
		time.Sleep(pollEvery)
		res.polls++
		if res.err = r.c.do(ctx, http.MethodGet, base+"/"+st.ID, nil, &st); res.err != nil {
			return res
		}
	}
	if st.State != "done" {
		res.err = fmt.Errorf("sweep %s ended %s", st.ID, st.State)
		return res
	}
	t1 := time.Now()
	data, err := r.c.fetch(ctx, http.MethodGet, base+"/"+st.ID+"/result", nil)
	if err != nil {
		res.err = err
		return res
	}
	var out service.SweepResult
	if res.err = json.Unmarshal(data, &out); res.err != nil {
		return res
	}
	res.total = time.Since(t0)
	res.result = time.Since(t1)
	res.resultBytes = len(data)
	res.sweepRes = &out
	res.cellState = st.Cell
	res.cells = st.Cells
	for _, c := range st.Cell {
		if c.Disposition == engine.DispositionExecuted {
			res.executed++
			res.accesses += c.Total
		}
	}
	return res
}

func (r *runner) liveOp(ctx context.Context, k int, req service.SubmitRequest) opResult {
	res := opResult{k: k, req: req}
	body, err := json.Marshal(req)
	if err != nil {
		res.err = err
		return res
	}
	base := r.env.front.url + "/v1/experiments"
	t0 := time.Now()
	var st service.ExperimentStatus
	if res.err = r.c.do(ctx, http.MethodPost, base, body, &st); res.err != nil {
		return res
	}
	res.submit = time.Since(t0)
	res.id = st.ID
	var final service.ExperimentStatus
	var decodeErr error
	res.err = r.c.follow(ctx, base+"/"+st.ID+"/live", "done", func(ev sseEvent) {
		switch ev.name {
		case "window":
			res.windows++
			if res.windows == 1 {
				res.firstWindow = time.Since(t0)
			}
		case "done":
			decodeErr = json.Unmarshal(ev.data, &final)
		}
	})
	if res.err == nil {
		res.err = decodeErr
	}
	if res.err != nil {
		return res
	}
	if final.State != "done" {
		res.err = fmt.Errorf("experiment %s ended %s", st.ID, final.State)
		return res
	}
	t1 := time.Now()
	data, err := r.c.fetch(ctx, http.MethodGet, base+"/"+st.ID+"/result", nil)
	if err != nil {
		res.err = err
		return res
	}
	var out service.ExperimentResult
	if res.err = json.Unmarshal(data, &out); res.err != nil {
		return res
	}
	res.total = time.Since(t0)
	res.result = time.Since(t1)
	res.resultBytes = len(data)
	res.expRes = &out
	res.expStatus = &final
	res.cells = len(final.Jobs)
	for _, j := range final.Jobs {
		if j.Disposition == engine.DispositionExecuted {
			res.executed++
			res.accesses += j.Total
		}
	}
	return res
}
