package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"jetty/internal/energy"
	"jetty/internal/engine"
	"jetty/internal/jetty"
	"jetty/internal/metrics"
	"jetty/internal/sim"
	"jetty/internal/smp"
	"jetty/internal/store"
	"jetty/internal/sweep"
	"jetty/internal/trace"
	"jetty/internal/workload"
)

// The traced replay re-runs an op's executed work in-process through
// each layer's public calls, with a span around every call: the same
// (fused) pass the daemon ran — Spec.Source plus Next into a batch (or
// Reader.ReadBatch for a trace), smp.New, Step (StepBatch for a trace),
// the drain and audits, result building, EncodeResult and, for a
// durable daemon, PutResult/GetResult on the same filesystem. The same
// batch also steps a filterless machine, so the filter bank's own cost
// is the difference of two steps over identical input. The replay's
// counters must equal what the daemon served.

// replayBatch is the replay's record-batch size.
const replayBatch = 8192

// Span names. The reconciliation sums the layers the daemon's engine
// run also covers (replayLayers lists them); the rest feed only their
// own per-layer metric.
const (
	spUnit      = "unit"
	spGen       = "workload.gen"
	spDecode    = "trace.decode"
	spNew       = "smp.new"
	spStep      = "smp.step"
	spNoFilter  = "nofilter.step"
	spAudit     = "smp.audit"
	spResult    = "sim.result"
	spEncode    = "sim.encode"
	spPut       = "store.put"
	spGet       = "store.get"
	spResDecode = "sim.decode"
	spWindow    = "metrics.window"
)

// unit is one fused pass to replay: the stream, the filterless machine
// and one filter bank per executed member cell.
type unit struct {
	gen      *workload.Spec  // generator stream, or
	trace    *sim.TraceInput // a stored trace
	base     smp.Config
	keys     []string
	banks    [][]jetty.Config
	interval uint64
}

// accesses is the unit's stream length.
func (u unit) accesses() uint64 {
	if u.trace != nil {
		return u.trace.Records
	}
	return u.gen.Accesses
}

// replayOut is one replayed unit's per-member results and raw timings.
type replayOut struct {
	results []sim.AppResult
	encoded []int           // encoded result sizes
	puts    []time.Duration // per member
	gets    []time.Duration
	encodes []time.Duration
	decodes []time.Duration
}

// replay runs u once. rec may be nil (the untraced twin used for the
// overhead figure); st may be nil (no durable daemon to mirror).
func replay(ctx context.Context, rec *recorder, u unit, st *store.Store) (replayOut, error) {
	var out replayOut
	rec.newTrace()
	root := rec.begin(spUnit)
	defer rec.end(root)

	var all []jetty.Config
	for _, b := range u.banks {
		all = append(all, b...)
	}
	wide := u.base.WithFilters(all...)

	sp := rec.begin(spNew)
	sys := smp.New(wide)
	rec.end(sp)
	bare := smp.New(u.base)
	var sm *metrics.Sampler
	if u.interval > 0 {
		// The service's live feed prices and encodes every window on the
		// simulation goroutine; the replay does the same.
		we := sim.WindowEnergy(wide)
		sm = metrics.NewSampler(metrics.Config{
			Interval: u.interval,
			Filters:  len(all),
			Capacity: int(u.accesses()/u.interval) + 2,
			OnWindow: func(w *metrics.Window) {
				s := rec.begin(spWindow)
				w.Energy = we(w)
				_, _ = json.Marshal(w) // plain data; the live feed drops it on error too
				rec.end(s)
			},
		})
		sys.SetSampler(sm)
	}

	buf := make([]trace.Rec, replayBatch)
	// A trace replays through StepBatch, as the sim layer replays one; a
	// generator pass steps each reference through Step, as System.Run
	// does for the daemon.
	stepAll := func(sys *smp.System, recs []trace.Rec) {
		if u.trace != nil {
			sys.StepBatch(recs)
			return
		}
		for _, r := range recs {
			sys.Step(int(r.CPU), trace.Ref{Op: r.Op, Addr: r.Addr})
		}
	}
	step := func(n int) {
		s := rec.begin(spStep)
		stepAll(sys, buf[:n])
		rec.end(s)
		s = rec.begin(spNoFilter)
		stepAll(bare, buf[:n])
		rec.end(s)
	}
	var resSpec workload.Spec
	if u.trace != nil {
		s := rec.begin(spDecode)
		rd, err := trace.NewReader(bytes.NewReader(u.trace.Data))
		rec.end(s)
		if err != nil {
			return out, err
		}
		for {
			if err := ctx.Err(); err != nil {
				return out, err
			}
			s := rec.begin(spDecode)
			n, err := rd.ReadBatch(buf)
			rec.end(s)
			step(n)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return out, err
			}
		}
		resSpec = workload.Spec{Name: u.trace.Name, Accesses: u.trace.Records}
	} else {
		s := rec.begin(spGen)
		src := u.gen.Source(u.base.CPUs)
		rec.end(s)
		ncpu := src.CPUs()
		var done uint64
		for done < u.gen.Accesses {
			if err := ctx.Err(); err != nil {
				return out, err
			}
			n := min(uint64(len(buf)), u.gen.Accesses-done)
			s := rec.begin(spGen)
			for i := range buf[:n] {
				cpu := int((done + uint64(i)) % uint64(ncpu))
				ref, ok := src.Next(cpu)
				if !ok {
					rec.end(s)
					return out, fmt.Errorf("replay: generator %s ran dry", u.gen.Name)
				}
				buf[i] = trace.Rec{Addr: ref.Addr, CPU: int32(cpu), Op: ref.Op}
			}
			rec.end(s)
			step(int(n))
			done += n
		}
		resSpec = *u.gen
	}
	if got := sys.Refs(); got != u.accesses() {
		return out, fmt.Errorf("replay: stepped %d of %d references", got, u.accesses())
	}

	s := rec.begin(spAudit)
	sys.DrainWriteBuffers()
	if sm != nil {
		sm.Flush(sys)
	}
	err := sys.CheckFilterSafety()
	if err == nil {
		err = sys.CheckCoherence()
	}
	rec.end(s)
	if err != nil {
		return out, err
	}

	s = rec.begin(spResult)
	full := buildResult(sys, resSpec, wide, sm)
	off := 0
	for _, b := range u.banks {
		out.results = append(out.results, project(full, off, len(b)))
		off += len(b)
	}
	rec.end(s)

	for i, r := range out.results {
		t := time.Now()
		s := rec.begin(spEncode)
		data, err := sim.EncodeResult(r)
		rec.end(s)
		out.encodes = append(out.encodes, time.Since(t))
		if err != nil {
			return out, err
		}
		out.encoded = append(out.encoded, len(data))
		if st != nil {
			t = time.Now()
			s = rec.begin(spPut)
			err := st.PutResult(u.keys[i], data)
			rec.end(s)
			out.puts = append(out.puts, time.Since(t))
			if err != nil {
				return out, err
			}
			t = time.Now()
			s = rec.begin(spGet)
			back, ok := st.GetResult(u.keys[i])
			rec.end(s)
			out.gets = append(out.gets, time.Since(t))
			if !ok || !bytes.Equal(back, data) {
				return out, fmt.Errorf("replay: store read back a different result for %s", u.keys[i])
			}
		}
		t = time.Now()
		s = rec.begin(spResDecode)
		dec, err := sim.DecodeResult(data)
		rec.end(s)
		out.decodes = append(out.decodes, time.Since(t))
		if err != nil {
			return out, err
		}
		if ok, err := sameJSON(dec, r); err != nil || !ok {
			return out, fmt.Errorf("replay: result does not survive encode/decode (%v)", err)
		}
	}
	return out, nil
}

// buildResult measures a finished pass exactly as the sim layer does.
func buildResult(sys *smp.System, sp workload.Spec, cfg smp.Config, sm *metrics.Sampler) sim.AppResult {
	res := sim.AppResult{
		Spec:              sp,
		CPUs:              cfg.CPUs,
		Refs:              sys.Refs(),
		MemoryBytes:       sp.MemoryBytes(cfg.CPUs),
		L1HitRate:         sys.L1HitRate(),
		L2LocalHitRate:    sys.L2LocalHitRate(),
		Counts:            sys.EnergyCounts(),
		CPU:               sys.CPUStatsTotal(),
		Bus:               *sys.BusStats(),
		RemoteHitFrac:     sys.BusStats().RemoteHitFractions(),
		SnoopMissOfSnoops: sys.SnoopMissFracOfSnoops(),
		SnoopMissOfAll:    sys.SnoopMissFracOfAll(),
		FilterNames:       sys.FilterNames(),
	}
	for i := range cfg.Filters {
		res.FilterCounts = append(res.FilterCounts, sys.FilterCounts(i))
		res.Coverage = append(res.Coverage, sys.Coverage(i))
	}
	if sm != nil {
		we := sim.WindowEnergy(cfg)
		wins := append([]metrics.Window(nil), sm.Windows()...)
		for i := range wins {
			wins[i].Filters = append([]energy.FilterCounts(nil), wins[i].Filters...)
			wins[i].Energy = we(&wins[i])
		}
		res.Timeline = &metrics.Timeline{Interval: sm.Interval(), FilterNames: sys.FilterNames(), Windows: wins}
	}
	return res
}

// project slices filter columns [off, off+n) out of a wide result.
func project(full sim.AppResult, off, n int) sim.AppResult {
	r := full.Clone()
	r.FilterNames = r.FilterNames[off : off+n]
	r.FilterCounts = r.FilterCounts[off : off+n]
	r.Coverage = r.Coverage[off : off+n]
	if r.Timeline != nil {
		r.Timeline.FilterNames = r.Timeline.FilterNames[off : off+n]
		for i := range r.Timeline.Windows {
			r.Timeline.Windows[i].Filters = r.Timeline.Windows[i].Filters[off : off+n]
		}
	}
	return r
}

// opUnits rebuilds the fused passes op res executed, with the served
// cells each member's replay must reproduce.
func opUnits(e *env, res opResult) ([]unit, [][]sweep.Cell, error) {
	if res.expRes != nil {
		cfg, err := sim.PaperBankConfig(4, res.req.NSB, res.req.Filters)
		if err != nil {
			return nil, nil, err
		}
		var units []unit
		for i, app := range res.req.Apps {
			if res.expStatus.Jobs[i].Disposition != engine.DispositionExecuted {
				continue
			}
			sp, err := experimentRun(res.req, app)
			if err != nil {
				return nil, nil, err
			}
			units = append(units, unit{gen: &sp, base: cfg.WithoutFilters(), keys: []string{res.expStatus.Jobs[i].Key},
				banks: [][]jetty.Config{cfg.Filters}, interval: res.req.Interval})
		}
		return units, nil, nil
	}
	cells, err := res.spec.Expand(e.resolver)
	if err != nil {
		return nil, nil, err
	}
	executed := make(map[int]bool)
	for _, c := range res.cellState {
		executed[c.Index] = c.Disposition == engine.DispositionExecuted
	}
	var units []unit
	var members [][]sweep.Cell
	for _, idxs := range sweep.PlanUnits(res.spec, cells) {
		// A cluster coordinator dispatches every cell of a unit that is
		// not wholly resolved, so its worker's pass carries them all.
		whole := false
		if e.coord != nil {
			for _, i := range idxs {
				whole = whole || executed[i]
			}
		}
		var u unit
		var mc []sweep.Cell
		for _, i := range idxs {
			if !executed[i] && !whole {
				continue
			}
			c := cells[i]
			cfg := c.Config()
			if strings.HasPrefix(c.Workload, sweep.TracePrefix) {
				in := e.trace
				u.trace = &in
				if sim.TraceFingerprint(in.Digest, cfg) != c.Key {
					return nil, nil, fmt.Errorf("replay: cell %d key does not match its trace and machine", i)
				}
			} else {
				sp, err := workload.Lookup(c.Workload)
				if err != nil {
					return nil, nil, err
				}
				sp = sp.Scale(res.spec.Scale)
				u.gen = &sp
				if sim.Fingerprint(sp, cfg) != c.Key {
					return nil, nil, fmt.Errorf("replay: cell %d key does not match its spec and machine", i)
				}
			}
			u.base = cfg.WithoutFilters()
			u.keys = append(u.keys, c.Key)
			u.banks = append(u.banks, cfg.Filters)
			mc = append(mc, c)
		}
		if len(mc) > 0 {
			units = append(units, u)
			members = append(members, mc)
		}
	}
	return units, members, nil
}

// checkReplay compares a unit's replayed results with what the daemon
// served for the same cells.
func checkReplay(res opResult, u unit, cells []sweep.Cell, out replayOut) error {
	if res.expRes != nil {
		for i, job := range res.expStatus.Jobs {
			if job.Key == u.keys[0] {
				ok, err := sameJSON(out.results[0], res.expRes.Results[i])
				if err != nil {
					return err
				}
				if !ok {
					return fmt.Errorf("replay of op %d differs from the served %s result", res.k, job.App)
				}
				return nil
			}
		}
		return fmt.Errorf("replay of op %d: no served job with key %s", res.k, u.keys[0])
	}
	served := make(map[string]sweep.Metric)
	for _, m := range res.sweepRes.Metrics {
		served[metricKey(m)] = m
	}
	for _, m := range sweep.Fold(res.spec, cells, out.results).Metrics {
		s, ok := served[metricKey(m)]
		if !ok {
			return fmt.Errorf("replay of op %d: no served metric for %s", res.k, metricKey(m))
		}
		if same, err := sameJSON(s, m); err != nil || !same {
			return fmt.Errorf("replay of op %d differs from the served metric %s", res.k, metricKey(m))
		}
	}
	return nil
}

func metricKey(m sweep.Metric) string {
	return fmt.Sprintf("%s|%s|%s|%d", m.Workload, m.Machine, m.Filter, m.Repeat)
}
