package sim

import (
	"context"
	"reflect"
	"slices"

	"jetty/internal/energy"
	"jetty/internal/engine"
	"jetty/internal/jetty"
	"jetty/internal/metrics"
	"jetty/internal/smp"
	"jetty/internal/workload"
)

// Fused evaluation: JETTY filters are passive observers of the
// coherence stream — they never change what the bus sees — so any
// number of filter banks can ride on ONE simulation pass and each
// observe exactly the stream it would have seen alone. This file
// exploits that: it runs the machine once with every member's bank
// concatenated into one wide observer bank, then projects the wide
// result back into per-member AppResults by slicing each member's
// contiguous filter columns out.
//
// The projection is bit-identical to running each member separately
// (TestSweepFusedMatchesPerCell in internal/sweep pins it):
//   - Machine state, counters, bus statistics and hit rates are pure
//     functions of (reference stream, machine config minus filters),
//     so the wide run's aggregates equal every member's.
//   - A filter instance's counts depend only on the snoop stream and
//     its own configuration — never on its neighbors in the bank — so
//     slicing columns [off, off+n) yields the member's exact counts.
//   - Coverage is Filtered/SnoopMisses: same integers, same float.
//   - Timeline windows carry machine Counts (filter-independent, and
//     Window.Energy derives from Counts alone) plus per-filter columns
//     sliced the same way.
//
// A group may also span machines that share the reference stream (same
// workload spec or trace, same CPU count; the sweep planner packs them
// under a memory bound). The pass then builds one wide machine per
// machine, generates or decodes each batch once and steps it through
// every machine in turn. Machines share nothing but the read-only batch,
// so each one's stepping — and everything derived from it — is exactly
// that of a run of its own.

// FusedMember is one member of a fused run: the content address its
// result is cached under (the member cell's existing per-cell key, so
// fused and per-cell runs share cache entries), the filterless machine
// it runs on, and its filter bank. Members of one group share a
// reference stream; members on equal machines share one wide machine.
type FusedMember struct {
	Key     string
	Machine smp.Config
	Bank    []jetty.Config
}

// fusedConfig widens base with every bank concatenated in order. base
// must carry no filters of its own (the planner groups by the
// filterless config).
func fusedConfig(base smp.Config, banks [][]jetty.Config) smp.Config {
	total := 0
	for _, b := range banks {
		total += len(b)
	}
	all := make([]jetty.Config, 0, total)
	for _, b := range banks {
		all = append(all, b...)
	}
	return base.WithFilters(all...)
}

// projectResult slices one member's result out of the wide run: filter
// columns [off, off+n) of the aggregate counters and of every timeline
// window, everything else copied verbatim (it is identical for every
// member by construction). Slices are freshly allocated — members must
// not alias each other or the wide result (they go into the engine
// cache independently).
func projectResult(full AppResult, off, n int) AppResult {
	r := full
	r.RemoteHitFrac = append([]float64(nil), full.RemoteHitFrac...)
	r.Bus.RemoteHits = append([]uint64(nil), full.Bus.RemoteHits...)
	r.FilterNames = append([]string(nil), full.FilterNames[off:off+n]...)
	r.FilterCounts = append([]energy.FilterCounts(nil), full.FilterCounts[off:off+n]...)
	r.Coverage = append([]float64(nil), full.Coverage[off:off+n]...)
	if full.Timeline != nil {
		tl := &metrics.Timeline{
			Interval:    full.Timeline.Interval,
			FilterNames: append([]string(nil), full.Timeline.FilterNames[off:off+n]...),
			Windows:     append([]metrics.Window(nil), full.Timeline.Windows...),
		}
		for i := range tl.Windows {
			tl.Windows[i].Filters = append([]energy.FilterCounts(nil), full.Timeline.Windows[i].Filters[off:off+n]...)
		}
		r.Timeline = tl
	}
	return r
}

// projectAll demuxes the wide result into one AppResult per bank, in
// bank order.
func projectAll(full AppResult, banks [][]jetty.Config) []AppResult {
	out := make([]AppResult, len(banks))
	off := 0
	for i, b := range banks {
		out[i] = projectResult(full, off, len(b))
		off += len(b)
	}
	return out
}

// RunAppFusedCtx runs ONE simulation of sp on base with every bank
// attached as concatenated observers and returns one AppResult per
// bank, each bit-identical to a separate run of sp on
// base.WithFilters(bank...). opt attaches interval sampling (each
// member's result then carries its sliced Timeline).
func RunAppFusedCtx(ctx context.Context, sp workload.Spec, base smp.Config, banks [][]jetty.Config, opt SampleOptions, report func(done uint64)) ([]AppResult, error) {
	full, err := only(runApp(ctx, sp, []smp.Config{fusedConfig(base, banks)}, nil, opt, report))
	if err != nil {
		return nil, err
	}
	return projectAll(full, banks), nil
}

// RunTraceFusedCtx is RunAppFusedCtx for a stored-trace replay.
func RunTraceFusedCtx(ctx context.Context, in TraceInput, base smp.Config, banks [][]jetty.Config, opt SampleOptions, report func(done uint64)) ([]AppResult, error) {
	full, err := only(runTrace(ctx, in, []smp.Config{fusedConfig(base, banks)}, opt, report))
	if err != nil {
		return nil, err
	}
	return projectAll(full, banks), nil
}

// fusedGroup assembles the engine.GroupTask shared by the app and
// trace constructors: per-member keys/totals, and a Run that builds one
// wide machine per distinct machine among the live members, attaching
// only the live members' banks (canceled and cache-satisfied members
// cost nothing, and a machine none of them needs is never built), steps
// every wide machine over one pass of the stream, and demuxes.
func fusedGroup(members []FusedMember, total uint64, run func(ctx context.Context, wide []smp.Config, report func(uint64)) ([]AppResult, error)) engine.GroupTask {
	ms := make([]engine.GroupMember, len(members))
	for i, m := range members {
		ms[i] = engine.GroupMember{Key: m.Key, Total: total}
	}
	return engine.GroupTask{
		Kind:    KindFused,
		Members: ms,
		Run: func(ctx context.Context, live []int, report func(uint64)) ([]any, error) {
			var machines []smp.Config
			var banks [][][]jetty.Config
			slot := make([]int, len(live)) // live member → machine index
			for k, i := range live {
				m := slices.IndexFunc(machines, func(c smp.Config) bool {
					return reflect.DeepEqual(c, members[i].Machine)
				})
				if m < 0 {
					m = len(machines)
					machines = append(machines, members[i].Machine)
					banks = append(banks, nil)
				}
				slot[k] = m
				banks[m] = append(banks[m], members[i].Bank)
			}
			wide := make([]smp.Config, len(machines))
			for m := range machines {
				wide[m] = fusedConfig(machines[m], banks[m])
			}
			fulls, err := run(ctx, wide, report)
			if err != nil {
				return nil, err
			}
			projected := make([][]AppResult, len(machines))
			for m, full := range fulls {
				projected[m] = projectAll(full, banks[m])
			}
			out := make([]any, len(live))
			next := make([]int, len(machines))
			for k, m := range slot {
				out[k] = projected[m][next[m]]
				next[m]++
			}
			return out, nil
		},
	}
}

// FusedAppGroup wraps one fused generator pass as an engine group task:
// one queued simulation that generates sp's stream once and steps every
// member's machine over it, one engine-cache fill per member under that
// member's own key. Every member's machine must have the same CPU
// count. The caller sets Origin on the returned task if it has one (the
// sweep scheduler stamps the submitting request's ID).
func FusedAppGroup(sp workload.Spec, members []FusedMember, opt SampleOptions) engine.GroupTask {
	return fusedGroup(members, sp.Accesses, func(ctx context.Context, wide []smp.Config, report func(uint64)) ([]AppResult, error) {
		return runApp(ctx, sp, wide, nil, opt, report)
	})
}

// FusedTraceGroup is FusedAppGroup for a stored-trace replay.
func FusedTraceGroup(in TraceInput, members []FusedMember, opt SampleOptions) engine.GroupTask {
	return fusedGroup(members, in.Records, func(ctx context.Context, wide []smp.Config, report func(uint64)) ([]AppResult, error) {
		return runTrace(ctx, in, wide, opt, report)
	})
}
