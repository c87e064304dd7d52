package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"jetty/internal/cluster"
	"jetty/internal/engine"
	"jetty/internal/sim"
	"jetty/internal/store"
	"jetty/internal/sweep"
	"jetty/internal/workload"
)

// perLayer are the traced run's metrics, in BENCHMARK.json order. A
// layer a workload does not exercise reads 0.
var perLayer = []struct{ name, unit string }{
	{"workload.gen_ns_per_access", "ns"},
	{"workload.gen_share", "frac"},
	{"smp.step_ns_per_access", "ns"},
	{"smp.new_us_per_cell", "us"},
	{"smp.audit_ms_per_cell", "ms"},
	{"smp.audit_share", "frac"},
	{"jetty.bank_ns_per_access", "ns"},
	{"trace.decode_ns_per_record", "ns"},
	{"sim.fingerprint_us_per_cell", "us"},
	{"sim.encode_us_per_cell", "us"},
	{"sim.decode_us_per_cell", "us"},
	{"sim.result_bytes", "bytes"},
	{"store.put_ms_p50", "ms"},
	{"store.get_us_p50", "us"},
	{"store.writes_per_op", "count"},
	{"store.hits_per_op", "count"},
	{"engine.queue_wait_ms_p50", "ms"},
	{"engine.run_ms_per_cell", "ms"},
	{"engine.executed_per_op", "count"},
	{"engine.cache_hit_ratio", "frac"},
	{"engine.task_overhead_us", "us"},
	{"sweep.expand_plan_ms", "ms"},
	{"sweep.fold_ms", "ms"},
	{"sweep.passes_per_cell", "count"},
	{"service.submit_ms_p50", "ms"},
	{"service.result_ms", "ms"},
	{"service.result_bytes", "bytes"},
	{"service.polls_per_op", "count"},
	{"cluster.wire_ms_per_unit", "ms"},
	{"cluster.memo_hit_ratio", "frac"},
	{"cluster.cells_rescheduled", "count"},
	{"cluster.redundant_completions", "count"},
	{"metrics.windows_per_op", "count"},
	{"metrics.first_window_ms", "ms"},
	{"runtime.alloc_bytes_per_access", "bytes"},
	{"runtime.gc_cpu_frac", "frac"},
	{"bench.unattributed_frac", "frac"},
	{"bench.trace_overhead_frac", "frac"},
}

// reconcileTolerance is the stated bound on bench.unattributed_frac: the
// traced replay's per-layer self times must sum to the daemon's engine
// run time of the same passes within this share. The replay runs
// without the request path's contention (status polls, the live feed's
// wake-ups, the client), so it reads low by up to about a third on the
// workloads with the most of it (METHOD.md).
const reconcileTolerance = 0.45

// Server-side counters read around the traced ops phase.
var serverCounters = []string{
	"jettyd_store_writes_total",
	"jettyd_store_hits_total",
	"jettyd_engine_run_duration_seconds_sum",
	"jettyd_engine_run_duration_seconds_count",
	"jettyd_engine_queue_wait_seconds_sum",
	"jettyd_engine_queue_wait_seconds_count",
}

// phaseCounters is one reading of every counter the traced run diffs.
type phaseCounters struct {
	workers map[string]float64 // summed over cluster workers
	all     map[string]float64 // summed over every daemon
	cluster cluster.Stats
	passes  float64 // fused passes the cluster workers ran
	rt      runtimeSample
}

func readCounters(ctx context.Context, e *env, c *client) (phaseCounters, error) {
	pc := phaseCounters{workers: map[string]float64{}, all: map[string]float64{}}
	for i, d := range e.daemons() {
		m, err := c.scrape(ctx, d.url, serverCounters...)
		if err != nil {
			return pc, err
		}
		if i > 0 { // a cluster worker
			for k, v := range m {
				pc.workers[k] += v
			}
			var h struct {
				Stats engine.Stats `json:"stats"`
			}
			if err := c.do(ctx, http.MethodGet, d.url+"/healthz", nil, &h); err != nil {
				return pc, err
			}
			pc.passes += float64(h.Stats.FusedGroups)
		}
		for k, v := range m {
			pc.all[k] += v
		}
	}
	if e.coord != nil {
		pc.cluster = e.coord.Stats()
	}
	pc.rt = sampleRuntime()
	return pc, nil
}

// layerMetrics computes the per-layer set from the traced ops phase
// (server statuses and counter deltas) and an in-process replay of the
// executed cells within budget.
func layerMetrics(ctx context.Context, r *runner, ops []opResult, before, after phaseCounters, budget time.Duration) (map[string]float64, error) {
	e := r.env
	m := make(map[string]float64)
	var good []opResult
	for _, op := range ops {
		if op.err == nil {
			good = append(good, op)
		}
	}
	if len(good) == 0 {
		return nil, fmt.Errorf("traced run: no successful op")
	}
	nops := float64(len(good))

	// Client- and status-side figures over every op.
	var cells, executed int
	var accesses uint64
	var queueWaits, submitMS, resultMS, resultBytes, firstWin []float64
	var polls, windows float64
	var runMS float64 // summed per executed unit (local daemons)
	var passes, planned float64
	for _, op := range good {
		cells += op.cells
		executed += op.executed
		accesses += op.accesses
		submitMS = append(submitMS, ms(op.submit))
		resultMS = append(resultMS, ms(op.result))
		resultBytes = append(resultBytes, float64(op.resultBytes))
		polls += float64(op.polls)
		windows += float64(op.windows)
		if op.windows > 0 {
			firstWin = append(firstWin, ms(op.firstWindow))
		}
		if op.expStatus != nil {
			for _, j := range op.expStatus.Jobs {
				if j.Disposition == engine.DispositionExecuted {
					queueWaits = append(queueWaits, j.QueueWaitMS)
					runMS += j.RunMS
				}
			}
			passes += float64(len(op.expStatus.Jobs))
			planned += float64(len(op.expStatus.Jobs))
			continue
		}
		units, err := opUnitRuns(e, op)
		if err != nil {
			return nil, err
		}
		runMS += units.runMS
		queueWaits = append(queueWaits, units.queueWaits...)
		passes += float64(units.passes)
		planned += float64(op.cells)
	}
	m["engine.executed_per_op"] = float64(executed) / nops
	m["engine.cache_hit_ratio"] = float64(cells-executed) / float64(cells)
	m["service.submit_ms_p50"] = median(submitMS)
	m["service.result_ms"] = median(resultMS)
	m["service.result_bytes"] = median(resultBytes)
	m["service.polls_per_op"] = polls / nops
	m["sweep.passes_per_cell"] = passes / planned
	m["metrics.windows_per_op"] = windows / nops
	if len(firstWin) > 0 {
		m["metrics.first_window_ms"] = median(firstWin)
	}
	m["store.writes_per_op"] = (after.all["jettyd_store_writes_total"] - before.all["jettyd_store_writes_total"]) / nops
	m["store.hits_per_op"] = (after.all["jettyd_store_hits_total"] - before.all["jettyd_store_hits_total"]) / nops
	if accesses > 0 {
		m["runtime.alloc_bytes_per_access"] = (after.rt.allocBytes - before.rt.allocBytes) / float64(accesses)
	}
	if cpu := after.rt.totalCPU - before.rt.totalCPU; cpu > 0 {
		m["runtime.gc_cpu_frac"] = (after.rt.gcCPU - before.rt.gcCPU) / cpu
	}

	var clusterPassMS float64
	if e.coord != nil {
		// Cluster cells run on the workers. Their engine histograms give
		// the run and queue wait of every executed member; the members of
		// one fused pass share its run, so sum/count is the mean pass
		// time, and the passes (fused groups) it took are spread over the
		// members the workers executed.
		count := after.workers["jettyd_engine_run_duration_seconds_count"] - before.workers["jettyd_engine_run_duration_seconds_count"]
		sum := after.workers["jettyd_engine_run_duration_seconds_sum"] - before.workers["jettyd_engine_run_duration_seconds_sum"]
		qc := after.workers["jettyd_engine_queue_wait_seconds_count"] - before.workers["jettyd_engine_queue_wait_seconds_count"]
		qs := after.workers["jettyd_engine_queue_wait_seconds_sum"] - before.workers["jettyd_engine_queue_wait_seconds_sum"]
		if count > 0 {
			passMS := 1000 * sum / count
			m["engine.run_ms_per_cell"] = passMS * (after.passes - before.passes) / count
			clusterPassMS = passMS
			fmt.Printf("# cluster workers executed %.0f member cells in %.0f passes for %d coordinator-executed cells\n",
				count, after.passes-before.passes, executed)
		}
		if qc > 0 {
			m["engine.queue_wait_ms_p50"] = 1000 * qs / qc
		}
		m["cluster.memo_hit_ratio"] = float64(after.cluster.MemoHits-before.cluster.MemoHits) / float64(cells)
		m["cluster.cells_rescheduled"] = float64(after.cluster.CellsRescheduled - before.cluster.CellsRescheduled)
		m["cluster.redundant_completions"] = float64(after.cluster.RedundantCompletions - before.cluster.RedundantCompletions)
	} else {
		if executed > 0 {
			m["engine.run_ms_per_cell"] = runMS / float64(executed)
		}
		if len(queueWaits) > 0 {
			m["engine.queue_wait_ms_p50"] = median(queueWaits)
		}
	}

	// In-process layer timings and the traced replay.
	deadline := time.Now().Add(budget * 6 / 10)
	if err := replayLayers(ctx, r, good, m, deadline, clusterPassMS); err != nil {
		return nil, err
	}
	m["engine.task_overhead_us"] = taskOverheadUS(ctx)
	if e.coord != nil {
		wire, err := wireMS(ctx, r, len(ops)+2)
		if err != nil {
			return nil, err
		}
		m["cluster.wire_ms_per_unit"] = wire
	}
	return m, nil
}

// wireProbes is how many units the wire measurement sends.
const wireProbes = 5

// unitRuns is what a local sweep op's cell statuses say about its
// executed fused passes.
type unitRuns struct {
	runMS      float64 // summed over executed passes
	queueWaits []float64
	passes     int // planned passes over all the op's cells
}

// opUnitRuns folds an op's cell statuses into per-pass figures: members
// of one fused pass share its run, so a pass counts once, at its
// longest member.
func opUnitRuns(e *env, op opResult) (unitRuns, error) {
	var out unitRuns
	cells, err := op.spec.Expand(e.resolver)
	if err != nil {
		return out, err
	}
	byIndex := make(map[int]int, len(op.cellState))
	for i, c := range op.cellState {
		byIndex[c.Index] = i
	}
	units := sweep.PlanUnits(op.spec, cells)
	out.passes = len(units)
	for _, idxs := range units {
		var run float64
		ran := false
		for _, i := range idxs {
			st := op.cellState[byIndex[i]]
			if st.Disposition != engine.DispositionExecuted {
				continue
			}
			ran = true
			run = max(run, st.RunMS)
			out.queueWaits = append(out.queueWaits, st.QueueWaitMS)
		}
		if ran {
			out.runMS += run
		}
	}
	return out, nil
}

// replayLayers replays the executed passes of ops (in order, at least
// one op, then while the deadline allows), checks them against the
// served results and fills the replay-derived metrics. clusterPassMS is
// the cluster workers' mean pass time (0 for a local daemon, whose cell
// statuses time each pass).
func replayLayers(ctx context.Context, r *runner, ops []opResult, m map[string]float64, deadline time.Time, clusterPassMS float64) error {
	e := r.env
	var st *store.Store
	durable := len(e.stores) > 0
	if durable {
		var err error
		if st, err = store.Open(filepath.Join(e.dataDir, "replay")); err != nil {
			return err
		}
	}
	rec := newRecorder()
	var accesses, records uint64
	var cellsReplayed, passes, opsReplayed int
	var puts, gets, sizes, expandMS, foldMS []float64
	var encodeSum, decodeSum, fingerprintSum time.Duration
	var fingerprinted int
	var daemonPassMS float64 // the daemon's run time of the replayed passes
	var probe []unit         // the first passes, for the overhead figure
	for n, op := range ops {
		if n > 0 && time.Now().After(deadline) {
			break
		}
		opsReplayed++
		if op.expRes == nil {
			t := time.Now()
			cells, err := op.spec.Expand(e.resolver)
			if err != nil {
				return err
			}
			sweep.PlanUnits(op.spec, cells)
			expandMS = append(expandMS, ms(time.Since(t)))
		}
		fp, nfp, err := fingerprintOp(e, op)
		if err != nil {
			return err
		}
		fingerprintSum += fp
		fingerprinted += nfp

		units, members, err := opUnits(e, op)
		if err != nil {
			return err
		}
		if len(probe) < overheadUnits {
			probe = append(probe, units[:min(len(units), overheadUnits-len(probe))]...)
		}
		var foldCells []sweep.Cell
		var foldResults []sim.AppResult
		outs, err := replayAll(ctx, rec, units, st, simWorkers(e))
		if err != nil {
			return fmt.Errorf("replay op %d: %w", op.k, err)
		}
		for ui, u := range units {
			out := outs[ui]
			var mc []sweep.Cell
			if members != nil {
				mc = members[ui]
				foldCells = append(foldCells, mc...)
				foldResults = append(foldResults, out.results...)
			}
			if err := checkReplay(op, u, mc, out); err != nil {
				return err
			}
			if u.trace != nil {
				records += u.accesses()
			}
			accesses += u.accesses()
			cellsReplayed += len(u.banks)
			passes++
			for i := range out.encoded {
				sizes = append(sizes, float64(out.encoded[i]))
				encodeSum += out.encodes[i]
				decodeSum += out.decodes[i]
			}
			for i := range out.puts {
				puts = append(puts, ms(out.puts[i]))
				gets = append(gets, ms(out.gets[i])*1000)
			}
		}
		switch {
		case op.expRes != nil:
			for _, j := range op.expStatus.Jobs {
				if j.Disposition == engine.DispositionExecuted {
					daemonPassMS += j.RunMS
				}
			}
		case clusterPassMS > 0:
			daemonPassMS += clusterPassMS * float64(len(units))
		default:
			runs, err := opUnitRuns(e, op)
			if err != nil {
				return err
			}
			daemonPassMS += runs.runMS
		}
		if members != nil {
			t := time.Now()
			sweep.Fold(op.spec, foldCells, foldResults)
			foldMS = append(foldMS, ms(time.Since(t)))
		}
	}
	if cellsReplayed == 0 || accesses == 0 {
		return fmt.Errorf("traced run: nothing to replay")
	}

	self := selfTimes(rec.spans)
	attributedSpans := []string{spGen, spDecode, spNew, spStep, spWindow, spAudit, spResult}
	if durable {
		attributedSpans = append(attributedSpans, spEncode, spPut)
	}
	var attributed time.Duration
	for _, s := range attributedSpans {
		attributed += self[s]
	}
	perAccess := func(d time.Duration) float64 { return float64(d) / float64(accesses) }
	perCell := func(d time.Duration) float64 { return float64(d) / float64(cellsReplayed) }
	if self[spGen] > 0 {
		m["workload.gen_ns_per_access"] = perAccess(self[spGen])
	}
	m["workload.gen_share"] = float64(self[spGen]) / float64(attributed)
	m["smp.step_ns_per_access"] = perAccess(self[spNoFilter])
	m["jetty.bank_ns_per_access"] = perAccess(self[spStep] - self[spNoFilter])
	m["smp.new_us_per_cell"] = perCell(self[spNew]) / 1e3
	m["smp.audit_ms_per_cell"] = perCell(self[spAudit]) / 1e6
	m["smp.audit_share"] = float64(self[spAudit]) / float64(attributed)
	if records > 0 {
		m["trace.decode_ns_per_record"] = float64(self[spDecode]) / float64(records)
	}
	m["sim.fingerprint_us_per_cell"] = float64(fingerprintSum) / float64(fingerprinted) / 1e3
	m["sim.encode_us_per_cell"] = float64(encodeSum) / float64(len(sizes)) / 1e3
	m["sim.decode_us_per_cell"] = float64(decodeSum) / float64(len(sizes)) / 1e3
	m["sim.result_bytes"] = median(sizes)
	if len(puts) > 0 {
		m["store.put_ms_p50"] = median(puts)
		m["store.get_us_p50"] = median(gets)
	}
	if len(expandMS) > 0 {
		m["sweep.expand_plan_ms"] = median(expandMS)
	}
	if len(foldMS) > 0 {
		m["sweep.fold_ms"] = median(foldMS)
	}
	// Reconciliation, per pass: the replay's attributed self time against
	// the daemon's engine run time of the same passes.
	m["bench.unattributed_frac"] = 1 - ms(attributed)/daemonPassMS
	fmt.Printf("# replayed %d passes (%d cells) of %d ops: attributed %.4g ms/pass, daemon %.4g ms/pass, unattributed %.3f (tolerance ±%.2f)\n",
		passes, cellsReplayed, opsReplayed, ms(attributed)/float64(passes), daemonPassMS/float64(passes),
		m["bench.unattributed_frac"], reconcileTolerance)
	if abs(m["bench.unattributed_frac"]) > reconcileTolerance {
		fmt.Println("# reconciliation outside tolerance")
	}

	// Tracing overhead: the first few passes with spans and without,
	// alternating, with no store so fsync noise stays out.
	var on, off []float64
	for i := 0; i < overheadReps; i++ {
		for _, tr := range []*recorder{nil, newRecorder()} {
			t := time.Now()
			for _, u := range probe {
				if _, err := replay(ctx, tr, u, nil); err != nil {
					return err
				}
			}
			if tr == nil {
				off = append(off, secs(time.Since(t)))
			} else {
				on = append(on, secs(time.Since(t)))
			}
		}
	}
	m["bench.trace_overhead_frac"] = median(on)/median(off) - 1

	f, err := os.Create(filepath.Join(buildDir, "spans-"+r.w+".jsonl"))
	if err != nil {
		return err
	}
	if err := rec.write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// The overhead figure takes the median of overheadReps traced and
// untraced replays of the first overheadUnits passes.
const (
	overheadReps  = 7
	overheadUnits = 2
)

// replayAll replays units with up to conc of them at once — the
// daemon's own pass concurrency, so the replay runs under the same
// contention the daemon's passes did — each goroutine recording into
// its own recorder, merged into rec afterwards.
func replayAll(ctx context.Context, rec *recorder, units []unit, st *store.Store, conc int) ([]replayOut, error) {
	outs := make([]replayOut, len(units))
	errs := make([]error, len(units))
	recs := make([]*recorder, len(units))
	sem := make(chan struct{}, conc)
	var wg sync.WaitGroup
	for i := range units {
		recs[i] = rec.fork()
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			outs[i], errs[i] = replay(ctx, recs[i], units[i], st)
		}()
	}
	wg.Wait()
	for _, r := range recs {
		rec.merge(r)
	}
	return outs, errors.Join(errs...)
}

// simWorkers is how many passes the env's daemons simulate at once.
func simWorkers(e *env) int {
	if e.coord != nil {
		return len(e.workers)
	}
	return runtime.NumCPU()
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// fingerprintOp times content-addressing every cell of op as the
// service does on submission.
func fingerprintOp(e *env, op opResult) (time.Duration, int, error) {
	if op.expRes != nil {
		cfg, err := sim.PaperBankConfig(4, op.req.NSB, op.req.Filters)
		if err != nil {
			return 0, 0, err
		}
		var total time.Duration
		for _, app := range op.req.Apps {
			sp, err := experimentRun(op.req, app)
			if err != nil {
				return 0, 0, err
			}
			t := time.Now()
			sim.Fingerprint(sp, cfg)
			total += time.Since(t)
		}
		return total, len(op.req.Apps), nil
	}
	cells, err := op.spec.Expand(e.resolver)
	if err != nil {
		return 0, 0, err
	}
	specs := make(map[string]workload.Spec)
	for _, c := range cells {
		if _, ok := specs[c.Workload]; ok || strings.HasPrefix(c.Workload, sweep.TracePrefix) {
			continue
		}
		sp, err := workload.Lookup(c.Workload)
		if err != nil {
			return 0, 0, err
		}
		specs[c.Workload] = sp.Scale(op.spec.Scale)
	}
	t := time.Now()
	for _, c := range cells {
		if sp, ok := specs[c.Workload]; ok {
			sim.Fingerprint(sp, c.Config())
		} else {
			sim.TraceFingerprint(e.trace.Digest, c.Config())
		}
	}
	return time.Since(t), len(cells), nil
}

// taskOverheadUS is the engine's fixed cost per task: Submit to Wait of
// a no-op task on an idle single-worker engine, median over many.
func taskOverheadUS(ctx context.Context) float64 {
	eng := engine.New(engine.Options{Workers: 1, CacheEntries: -1})
	defer eng.Close()
	var xs []float64
	for i := 0; i < 2000; i++ {
		t := time.Now()
		j := eng.Submit(engine.Task{Key: "noop-" + strconv.Itoa(i), Kind: "noop",
			Run: func(context.Context, func(uint64)) (any, error) { return nil, nil }})
		_, _ = j.Wait(ctx) // a no-op cannot fail
		xs = append(xs, float64(time.Since(t))/1e3)
	}
	return median(xs)
}

// wireMS measures the cluster's dispatch cost per unit: a fresh unit is
// sent straight to a worker with Client.RunCells, and the worker's own
// engine run time (its histogram delta) is subtracted from the round
// trip. Every other op ordinal from k on shares no filter with the
// measured ops or with each other, so nothing here touches a cache.
func wireMS(ctx context.Context, r *runner, k int) (float64, error) {
	e := r.env
	w := e.workers[0]
	cl, err := cluster.NewClient(w.url)
	if err != nil {
		return 0, err
	}
	if err := cl.UploadTrace(ctx, "", e.trace.Data); err != nil {
		return 0, err
	}
	var xs []float64
	for i := 0; i < wireProbes; i++ {
		spec := r.spec(k + 2*i)
		cells, err := spec.Expand(e.resolver)
		if err != nil {
			return 0, err
		}
		unit := sweep.PlanUnits(spec, cells)[0]
		before, err := r.c.scrape(ctx, w.url, serverCounters...)
		if err != nil {
			return 0, err
		}
		t := time.Now()
		resp, err := cl.RunCells(ctx, "", cluster.CellsRequest{Spec: spec, Indices: unit})
		rt := time.Since(t)
		if err != nil {
			return 0, err
		}
		after, err := r.c.scrape(ctx, w.url, serverCounters...)
		if err != nil {
			return 0, err
		}
		for _, oc := range resp.Cells {
			if oc.Disposition != engine.DispositionExecuted {
				return 0, fmt.Errorf("wire probe: cell %d was %s, not executed", oc.Index, oc.Disposition)
			}
		}
		count := after["jettyd_engine_run_duration_seconds_count"] - before["jettyd_engine_run_duration_seconds_count"]
		sum := after["jettyd_engine_run_duration_seconds_sum"] - before["jettyd_engine_run_duration_seconds_sum"]
		run := 0.0
		if count > 0 {
			run = 1000 * sum / count // members share one pass
		}
		xs = append(xs, ms(rt)-run)
	}
	return median(xs), nil
}
